package prog

import (
	"fmt"
	"strings"
)

// Schedule maps every statement instance to a multidimensional time (§4.1).
// Each statement has NRows affine rows over its extended iteration vector
// (ds + np + 1 coefficients); times are compared lexicographically. The last
// row of an optimizer-produced schedule is the constant dimension c_s
// (§4.2); original schedules additionally carry a leading nest-position row.
type Schedule struct {
	NRows int
	// Rows[stmtID] has NRows rows, each of length ds(stmt)+np+1.
	Rows map[int][][]int64
}

// NewSchedule creates an empty schedule with the given number of time
// dimensions.
func NewSchedule(nrows int) *Schedule {
	return &Schedule{NRows: nrows, Rows: make(map[int][][]int64)}
}

// SetRows installs a statement's schedule rows.
func (sch *Schedule) SetRows(stmtID int, rows [][]int64) {
	if len(rows) != sch.NRows {
		panic(fmt.Sprintf("prog: schedule for stmt %d has %d rows, want %d", stmtID, len(rows), sch.NRows))
	}
	sch.Rows[stmtID] = rows
}

// TimeOf returns the schedule time of a concrete statement instance.
func (sch *Schedule) TimeOf(s *Statement, x, params []int64) []int64 {
	return sch.AppendTimeOf(make([]int64, 0, sch.NRows), s, x, params)
}

// AppendTimeOf appends the time vector TimeOf returns to dst, so callers
// can pack many time vectors into one backing array.
func (sch *Schedule) AppendTimeOf(dst []int64, s *Statement, x, params []int64) []int64 {
	rows, ok := sch.Rows[s.ID]
	if !ok {
		panic(fmt.Sprintf("prog: no schedule for statement %s", s.Name))
	}
	for _, r := range rows {
		dst = append(dst, EvalRow(r, x, params))
	}
	return dst
}

// LexLess reports a ≺ b for equal-length time vectors.
func LexLess(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// LexCompare returns -1, 0 or 1.
func LexCompare(a, b []int64) int {
	for i := range a {
		if a[i] < b[i] {
			return -1
		}
		if a[i] > b[i] {
			return 1
		}
	}
	return 0
}

// OriginalSchedule builds the program's original schedule from nest/loop
// structure: time = (nest index, loop variables padded to d̃ with zeros,
// textual position). All statements share the same row count 1 + d̃ + 1, so
// lexicographic comparison is total.
func (p *Program) OriginalSchedule() *Schedule {
	dt := p.DTilde()
	sch := NewSchedule(dt + 2)
	np := len(p.Params)
	for _, s := range p.Stmts {
		w := s.Ds() + np + 1
		rows := make([][]int64, 0, dt+2)
		nest := make([]int64, w)
		nest[w-1] = int64(s.Nest)
		rows = append(rows, nest)
		for q := 0; q < dt; q++ {
			r := make([]int64, w)
			if q < s.Ds() {
				r[q] = 1
			}
			rows = append(rows, r)
		}
		pos := make([]int64, w)
		pos[w-1] = int64(s.Pos)
		rows = append(rows, pos)
		sch.SetRows(s.ID, rows)
	}
	return sch
}

// String renders the schedule rows per statement for debugging and reports.
func (sch *Schedule) StringFor(p *Program) string {
	var sb strings.Builder
	for _, s := range p.Stmts {
		rows := sch.Rows[s.ID]
		if rows == nil {
			continue
		}
		fmt.Fprintf(&sb, "Θ%s(x) = (", s.Name)
		for q, r := range rows {
			if q > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(renderRow(r, s.Vars, p.Params))
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}

func renderRow(row []int64, vars, params []string) string {
	names := append(append([]string(nil), vars...), params...)
	var terms []string
	for i, c := range row[:len(row)-1] {
		switch {
		case c == 0:
		case c == 1:
			terms = append(terms, names[i])
		case c == -1:
			terms = append(terms, "-"+names[i])
		default:
			terms = append(terms, fmt.Sprintf("%d%s", c, names[i]))
		}
	}
	k := row[len(row)-1]
	if k != 0 || len(terms) == 0 {
		terms = append(terms, fmt.Sprintf("%d", k))
	}
	out := strings.Join(terms, "+")
	return strings.ReplaceAll(out, "+-", "-")
}
