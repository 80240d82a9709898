package codegen

import (
	"fmt"
	"strings"
)

// Pseudocode reconstructs a readable loop nest from the timeline: runs of
// time values with identical body structure are folded into "for" loops,
// which reproduces the shape of the paper's §5.5 generated code (e.g. the
// merged j=0 nest followed by the j>=1 nest of Figure 1(b)). Statement
// bodies are shown via their notes; exact subscripts are carried by the
// timeline itself.
func (tl *Timeline) Pseudocode() string {
	tl = tl.withTimes()
	idx := make([]int, len(tl.Events))
	for i := range idx {
		idx[i] = i
	}
	var sb strings.Builder
	tl.render(&sb, idx, 0, 0)
	return sb.String()
}

// group splits the (time-sorted) events by their value at the given depth.
type group struct {
	val    int64
	events []int
}

func (tl *Timeline) groupsAt(events []int, depth int) []group {
	var out []group
	for _, e := range events {
		v := tl.Events[e].Time[depth]
		if len(out) == 0 || out[len(out)-1].val != v {
			out = append(out, group{val: v})
		}
		out[len(out)-1].events = append(out[len(out)-1].events, e)
	}
	return out
}

// signature describes the structure of a sub-timeline, ignoring absolute
// time values, so identical iterations can be folded into loops.
func (tl *Timeline) signature(events []int, depth int) string {
	if depth == len(tl.Events[events[0]].Time) {
		names := make([]string, len(events))
		for i, e := range events {
			names[i] = tl.Events[e].St.Name
		}
		return strings.Join(names, ";")
	}
	gs := tl.groupsAt(events, depth)
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = tl.signature(g.events, depth+1)
	}
	// If all iterations look alike, the count still matters one level up
	// only through len(parts); encode both.
	if allEqual(parts) && len(parts) > 1 {
		return fmt.Sprintf("L%d[%s]", len(parts), parts[0])
	}
	return "(" + strings.Join(parts, "|") + ")"
}

func allEqual(xs []string) bool {
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func (tl *Timeline) render(sb *strings.Builder, events []int, depth, indent int) {
	pad := strings.Repeat("  ", indent)
	if len(events) == 0 {
		return
	}
	if depth == len(tl.Events[events[0]].Time) {
		for _, e := range events {
			ev := tl.Events[e]
			note := ev.St.Note
			if note == "" {
				note = ev.St.Name
			}
			fmt.Fprintf(sb, "%s%s;  // %s\n", pad, note, ev.St.Name)
		}
		return
	}
	gs := tl.groupsAt(events, depth)
	if len(gs) == 1 {
		// Constant time dimension: descend silently.
		tl.render(sb, gs[0].events, depth+1, indent)
		return
	}
	// Fold maximal runs of contiguous, identically-shaped iterations.
	i := 0
	for i < len(gs) {
		j := i
		sig := tl.signature(gs[i].events, depth+1)
		for j+1 < len(gs) && gs[j+1].val == gs[j].val+1 &&
			tl.signature(gs[j+1].events, depth+1) == sig {
			j++
		}
		if j > i {
			fmt.Fprintf(sb, "%sfor t%d = %d..%d {\n", pad, depth, gs[i].val, gs[j].val)
			tl.render(sb, gs[i].events, depth+1, indent+1)
			fmt.Fprintf(sb, "%s}\n", pad)
		} else {
			fmt.Fprintf(sb, "%s// t%d = %d\n", pad, depth, gs[i].val)
			tl.render(sb, gs[i].events, depth+1, indent)
		}
		i = j + 1
	}
}
