package main

import (
	"fmt"
	"math/rand"
	"time"

	"riotshare/internal/bench"
	"riotshare/internal/prog"
	"riotshare/internal/server"
)

// program is one distinct program a workload submits. Queries of the same
// program share a correctness reference; cold programs differ from each
// other only in their (fresh) names.
type program struct {
	key string
	// request builds the n-th submission of this program.
	request func(n int) server.Request
	// build returns the program itself, for the oracle and the layer calls.
	build func() (*prog.Program, error)
	// subsets restricts planning to the paper's selected plans, as the
	// server does for the built-in linreg.
	subsets [][]string
}

// mixEntry is one program and how many of each block of queries it takes.
type mixEntry struct {
	prog  *program
	count int
}

// workload is one traffic mix over one server configuration.
type workload struct {
	name    string
	clients int
	// blockd stripes the store over two loopback block servers.
	blockd bool
	// stream takes results from /results/stream instead of /results.
	stream bool
	cfg    server.Config
	mix    []mixEntry
}

// programs lists the workload's distinct programs in mix order.
func (w *workload) programs() []*program {
	ps := make([]*program, len(w.mix))
	for i, e := range w.mix {
		ps[i] = e.prog
	}
	return ps
}

// weight is the share of queries that go to p.
func (w *workload) weight(p *program) float64 {
	total, n := 0, 0
	for _, e := range w.mix {
		total += e.count
		if e.prog == p {
			n = e.count
		}
	}
	return float64(n) / float64(total)
}

// block returns one block of the mix in a seeded order: every block holds
// each program exactly its count times, so the proportions of a run never
// depend on the seed.
func (w *workload) block(rng *rand.Rand) []*program {
	var b []*program
	for _, e := range w.mix {
		for i := 0; i < e.count; i++ {
			b = append(b, e.prog)
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// Out-of-core sizing: two 64x64-block inputs of 16x16 blocks (8 MiB each)
// against a 4 MiB pool, so the shared inputs alone are 4x the pool.
const (
	oocBlock    = 64
	oocGrid     = 16
	oocPoolSize = 4 << 20
)

// newWorkload returns the named workload; the seed only labels the cold
// programs (their shapes and proportions are fixed).
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "warm":
		// Daemon defaults (cmd/riotshared serve): 256 MB pool, one
		// worker, 250 ms greedy budget with the background improver.
		return &workload{
			name: name, clients: 2,
			cfg: server.Config{
				PoolBytes: 256 << 20, MaxConcurrent: 2, Workers: 1,
				PlanBudget: 250 * time.Millisecond, PlanImprover: true,
			},
			mix: []mixEntry{{builtin("twomm-a", bench.TwoMMPaperA, nil), 2}, {builtin("linreg", bench.LinRegPaper, bench.LinRegSelectedPlans()), 2}},
		}, nil
	case "cold":
		// Weights 3:4:3 put p50 in the middle of the linreg cluster and
		// p90 well inside the twomm cluster of planning times.
		return &workload{
			name: name, clients: 1,
			cfg: server.Config{
				PoolBytes: 256 << 20, MaxConcurrent: 2, Workers: 1,
				PlanBudget: 10 * time.Minute,
			},
			mix: []mixEntry{
				{coldProgram("addmul", addMulSpec, seed), 3},
				{coldProgram("linreg", linRegSpec, seed), 4},
				{coldProgram("twomm", twoMMSpec, seed), 3},
			},
		}, nil
	case "out-of-core":
		return &workload{
			name: name, clients: 2, blockd: true, stream: true,
			cfg: server.Config{
				PoolBytes: oocPoolSize, MaxConcurrent: 2, Workers: 2,
				PlanBudget: 250 * time.Millisecond,
			},
			mix: []mixEntry{
				{specProgram("addsub", func(name string) *server.ProgramSpec { return elementwiseSpec(name, false) }), 1},
				{specProgram("subadd", func(name string) *server.ProgramSpec { return elementwiseSpec(name, true) }), 1},
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (warm, cold, out-of-core)", name)
}

func builtin(name string, build func() *prog.Program, subsets [][]string) *program {
	return &program{
		key:     name,
		request: func(int) server.Request { return server.Request{Program: name} },
		build:   func() (*prog.Program, error) { return build(), nil },
		subsets: subsets,
	}
}

// specProgram submits the same spec every time, so its plan is cached.
func specProgram(name string, spec func(name string) *server.ProgramSpec) *program {
	return &program{
		key:     name,
		request: func(int) server.Request { return server.Request{Spec: spec(name)} },
		build:   func() (*prog.Program, error) { return spec(name).Build() },
	}
}

// coldProgram submits a never-seen name each time, so every query misses
// the plan cache and is planned from scratch.
func coldProgram(shape string, spec func(name string) *server.ProgramSpec, seed int64) *program {
	return &program{
		key: shape,
		request: func(n int) server.Request {
			return server.Request{Spec: spec(fmt.Sprintf("%s-s%d-%d", shape, seed, n))}
		},
		build: func() (*prog.Program, error) { return spec(shape).Build() },
	}
}

// Spec helpers: affine expressions and the operator statements of
// internal/ops, written as statement-builder JSON.

func v(name string) server.ExprSpec { return server.ExprSpec{Terms: map[string]int64{name: 1}} }

func k(c int64) server.ExprSpec { return server.ExprSpec{K: c} }

// vk is name + c.
func vk(name string, c int64) server.ExprSpec {
	return server.ExprSpec{Terms: map[string]int64{name: 1}, K: c}
}

func rng(vr, hi string) server.RangeSpec { return server.RangeSpec{Var: vr, Hi: v(hi)} }

func rd(arr string, r, c server.ExprSpec, when ...server.CondSpec) server.AccessSpec {
	return server.AccessSpec{Type: "read", Array: arr, Row: r, Col: c, When: when}
}

func wr(arr string, r, c server.ExprSpec) server.AccessSpec {
	return server.AccessSpec{Type: "write", Array: arr, Row: r, Col: c}
}

func ge(e server.ExprSpec) server.CondSpec { return server.CondSpec{Expr: e} }

// arr declares an array with physical block rows x cols in a gr x gc grid
// and a logical block of lr x lc elements (0 = physical).
func arr(name string, rows, cols, gr, gc, lr, lc int, transient bool) server.ArraySpec {
	a := server.ArraySpec{Name: name, BlockRows: rows, BlockCols: cols, GridRows: gr, GridCols: gc, Transient: transient}
	if lr > 0 {
		a.LogicalBlockBytes = int64(lr) * int64(lc) * 8
	}
	return a
}

// elementwise is dst[i,k] = a[i,k] op b[i,k] over the n1 x n2 grid.
func elementwise(name, kernel, dst, a, b string) server.StmtSpec {
	return server.StmtSpec{
		Name: name, Vars: []string{"i", "k"}, NewNest: true,
		Ranges:   []server.RangeSpec{rng("i", "n1"), rng("k", "n2")},
		Accesses: []server.AccessSpec{rd(a, v("i"), v("k")), rd(b, v("i"), v("k")), wr(dst, v("i"), v("k"))},
		Kernel:   kernel,
	}
}

// matMulAcc is dst[i,j] += a[i,k]·b[k,j] with the accumulator read
// guarded k >= 1 (ops.MatMulAcc without transposes).
func matMulAcc(name, dst, a, b, pi, pj, pk string) server.StmtSpec {
	return server.StmtSpec{
		Name: name, Vars: []string{"i", "j", "k"}, NewNest: true,
		Ranges: []server.RangeSpec{rng("i", pi), rng("j", pj), rng("k", pk)},
		Accesses: []server.AccessSpec{
			rd(a, v("i"), v("k")), rd(b, v("k"), v("j")),
			rd(dst, v("i"), v("j"), ge(vk("k", -1))), wr(dst, v("i"), v("j")),
		},
		Kernel: "gemm",
	}
}

// addMulSpec is the paper's §6.1 addmul (bench.AddMulPaper) over inputs
// am_A, am_B, am_D.
func addMulSpec(name string) *server.ProgramSpec {
	return &server.ProgramSpec{
		Name: name, Params: []string{"n1", "n2", "n3"},
		Bind: map[string]int64{"n1": 12, "n2": 12, "n3": 1},
		Arrays: []server.ArraySpec{
			arr("am_A", 6, 4, 12, 12, 6000, 4000, false),
			arr("am_B", 6, 4, 12, 12, 6000, 4000, false),
			arr("C", 6, 4, 12, 12, 6000, 4000, true),
			arr("am_D", 4, 5, 12, 1, 4000, 5000, false),
			arr("E", 6, 5, 12, 1, 6000, 5000, false),
		},
		Stmts: []server.StmtSpec{
			elementwise("s1", "add", "C", "am_A", "am_B"),
			matMulAcc("s2", "E", "C", "am_D", "n1", "n3", "n2"),
		},
	}
}

// twoMMSpec is the paper's §6.2 configuration A (bench.TwoMMPaperA) over
// inputs tm_A, tm_B, tm_D.
func twoMMSpec(name string) *server.ProgramSpec {
	return &server.ProgramSpec{
		Name: name, Params: []string{"n1", "n2", "n3", "n4"},
		Bind: map[string]int64{"n1": 6, "n2": 10, "n3": 6, "n4": 10},
		Arrays: []server.ArraySpec{
			arr("tm_A", 8, 7, 6, 6, 8000, 7000, false),
			arr("tm_B", 7, 3, 6, 10, 7000, 3000, false),
			arr("C", 8, 3, 6, 10, 8000, 3000, false),
			arr("tm_D", 7, 3, 6, 10, 7000, 3000, false),
			arr("E", 8, 3, 6, 10, 8000, 3000, false),
		},
		Stmts: []server.StmtSpec{
			matMulAcc("s1", "C", "tm_A", "tm_B", "n1", "n2", "n3"),
			matMulAcc("s2", "E", "tm_A", "tm_D", "n1", "n4", "n3"),
		},
	}
}

// linRegSpec is the paper's §6.3 linear regression (bench.LinRegPaper)
// over inputs lr_X, lr_Y, without the server's restriction to the
// selected plans: the greedy planner searches its whole space.
func linRegSpec(name string) *server.ProgramSpec {
	r := []server.RangeSpec{rng("r", "n")}
	return &server.ProgramSpec{
		Name: name, Params: []string{"n"}, Bind: map[string]int64{"n": 25},
		Arrays: []server.ArraySpec{
			arr("lr_X", 60, 40, 25, 1, 60000, 4000, false),
			arr("lr_Y", 60, 4, 25, 1, 60000, 400, false),
			arr("U", 40, 40, 1, 1, 4000, 4000, true),
			arr("V", 40, 4, 1, 1, 4000, 400, true),
			arr("W", 40, 40, 1, 1, 4000, 4000, true),
			arr("Bh", 40, 4, 1, 1, 4000, 400, false),
			arr("Yh", 60, 4, 25, 1, 60000, 400, true),
			arr("Ev", 60, 4, 25, 1, 60000, 400, true),
			arr("R", 1, 4, 1, 1, 0, 0, false),
		},
		Stmts: []server.StmtSpec{
			{Name: "s1", Vars: []string{"r"}, NewNest: true, Ranges: r, Kernel: "gemm:ta:self", Accesses: []server.AccessSpec{
				rd("lr_X", v("r"), k(0)), rd("U", k(0), k(0), ge(vk("r", -1))), wr("U", k(0), k(0))}},
			{Name: "s2", Vars: []string{"r"}, NewNest: true, Ranges: r, Kernel: "gemm:ta", Accesses: []server.AccessSpec{
				rd("lr_X", v("r"), k(0)), rd("lr_Y", v("r"), k(0)), rd("V", k(0), k(0), ge(vk("r", -1))), wr("V", k(0), k(0))}},
			{Name: "s3", NewNest: true, Kernel: "inv", Accesses: []server.AccessSpec{
				rd("U", k(0), k(0)), wr("W", k(0), k(0))}},
			{Name: "s4", NewNest: true, Kernel: "gemm", Accesses: []server.AccessSpec{
				rd("W", k(0), k(0)), rd("V", k(0), k(0)), wr("Bh", k(0), k(0))}},
			{Name: "s5", Vars: []string{"r"}, NewNest: true, Ranges: r, Kernel: "gemm", Accesses: []server.AccessSpec{
				rd("lr_X", v("r"), k(0)), rd("Bh", k(0), k(0)), wr("Yh", v("r"), k(0))}},
			{Name: "s6", Vars: []string{"r"}, NewNest: true, Ranges: r, Kernel: "sub", Accesses: []server.AccessSpec{
				rd("lr_Y", v("r"), k(0)), rd("Yh", v("r"), k(0)), wr("Ev", v("r"), k(0))}},
			{Name: "s7", Vars: []string{"r"}, NewNest: true, Ranges: r, Kernel: "rss", Accesses: []server.AccessSpec{
				rd("Ev", v("r"), k(0)), rd("R", k(0), k(0), ge(vk("r", -1))), wr("R", k(0), k(0))}},
		},
	}
}

// elementwiseSpec is C = A + B; E = A - B over the two shared out-of-core
// inputs (swapped statement order when reversed). The two statements read
// the same blocks, which the planner shares.
func elementwiseSpec(name string, reversed bool) *server.ProgramSpec {
	add := elementwise("s1", "add", "C", "ooc_A", "ooc_B")
	sub := elementwise("s2", "sub", "E", "ooc_A", "ooc_B")
	stmts := []server.StmtSpec{add, sub}
	if reversed {
		add.Name, sub.Name = "s2", "s1"
		stmts = []server.StmtSpec{sub, add}
	}
	return &server.ProgramSpec{
		Name: name, Params: []string{"n1", "n2"},
		Bind: map[string]int64{"n1": oocGrid, "n2": oocGrid},
		Arrays: []server.ArraySpec{
			arr("ooc_A", oocBlock, oocBlock, oocGrid, oocGrid, 0, 0, false),
			arr("ooc_B", oocBlock, oocBlock, oocGrid, oocGrid, 0, 0, false),
			arr("C", oocBlock, oocBlock, oocGrid, oocGrid, 0, 0, false),
			arr("E", oocBlock, oocBlock, oocGrid, oocGrid, 0, 0, false),
		},
		Stmts: stmts,
	}
}
