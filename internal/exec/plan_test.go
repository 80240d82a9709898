package exec

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// smallTwoMM is the two-multiplication program of the property tests.
func smallTwoMM() *prog.Program {
	return ops.TwoMM(ops.TwoMMConfig{
		N1: 3, N2: 4, N3: 3, N4: 4,
		ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4},
		DBlock: ops.Dims{Rows: 4, Cols: 4},
	})
}

// filledStore returns a fresh store holding p's inputs.
func filledStore(t *testing.T, p *prog.Program) *storage.Manager {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	fillInputs(t, p, m, 42)
	return m
}

// One compiled plan runs from several goroutines at once — one worker and
// four, each on its own store — with identical Results and bit-identical
// outputs, and a run rejected by the memory cap leaves the plan usable.
func TestPlanConcurrentExec(t *testing.T) {
	p := smallTwoMM()
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	pl := &res.Plans[0]
	cp, err := Compile(pl.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	ref, refOut := runPlan(t, p, pl, runConfig{format: storage.FormatDAF, reference: true})

	workers := []int{1, 4, 1, 4}
	stores := make([]*storage.Manager, len(workers))
	for k := range stores {
		stores[k] = filledStore(t, p)
	}
	results := make([]Result, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for k, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := &Engine{Store: stores[k], Model: disk.PaperModel()}
			results[k], errs[k] = eng.Exec(cp, Options{Workers: w})
		}()
	}
	wg.Wait()
	for k, w := range workers {
		if errs[k] != nil {
			t.Fatalf("run %d (workers=%d): %v", k, w, errs[k])
		}
		assertIdentical(t, pl.Label, w, ref, results[k], refOut, readOutputs(t, p, stores[k]))
	}

	capped := &Engine{Store: filledStore(t, p), Model: disk.PaperModel(), MemCapBytes: pl.Cost.PeakMemoryBytes - 1}
	if _, err := capped.Exec(cp, Options{Workers: 4}); err == nil || !strings.Contains(err.Error(), "memory cap") {
		t.Fatalf("cap below the plan's peak: err = %v, want a memory cap error", err)
	}
	m := filledStore(t, p)
	again, err := (&Engine{Store: m, Model: disk.PaperModel()}).Exec(cp, Options{Workers: 1})
	if err != nil {
		t.Fatalf("run after a capped run: %v", err)
	}
	assertIdentical(t, pl.Label+"+after-cap", 1, ref, again, refOut, readOutputs(t, p, m))
}

// greedyPlan plans p with the greedy tier and returns its best plan.
func greedyPlan(tb testing.TB, p *prog.Program) *core.EvaluatedPlan {
	tb.Helper()
	res, err := core.OptimizeGreedy(context.Background(), p, core.Options{BindParams: true})
	if err != nil {
		tb.Fatal(err)
	}
	return &res.Plans[0]
}

// A compiled plan stays compact: its retained heap (blocks interned to
// dense ids, no per-block key strings) is bounded well below a
// string-keyed pipeline's. The bounds are 150/280/60 KB, what a string-
// keyed compiled form of the same plans retained.
func TestCompiledPlanRetainedHeap(t *testing.T) {
	progs := paperPrograms()
	for _, tc := range []struct {
		name  string
		p     *prog.Program
		bound int64
	}{
		{"addmul", progs[0], 150 << 10},
		{"twomm-a", progs[1], 280 << 10},
		{"linreg", progs[3], 60 << 10},
	} {
		tl := greedyPlan(t, tc.p).Timeline
		const copies = 20
		plans := make([]*Plan, copies)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		for k := range plans {
			cp, err := Compile(tl)
			if err != nil {
				t.Fatal(err)
			}
			plans[k] = cp
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		per := (int64(ms.HeapAlloc) - int64(before)) / copies
		runtime.KeepAlive(plans)
		t.Logf("%s: %d events, %d blocks: %d bytes retained per compiled plan",
			tc.name, len(tl.Events), len(plans[0].blocks), per)
		if per > tc.bound {
			t.Errorf("%s: compiled plan retains %d bytes, want < %d", tc.name, per, tc.bound)
		}
	}
}

// BenchmarkExecOverhead measures the engine's own cost per event: the
// paper's two-multiplication configuration A under its greedy plan,
// compiled once and run with one worker over a buffer pool that already
// holds every block (all hits, no storage I/O). Kernels on the tiny
// physical blocks are a small share, so ns/event tracks scheduling,
// operand lookup, pinning and pool-hit copies.
func BenchmarkExecOverhead(b *testing.B) {
	p := twoMMPaperA()
	pl := greedyPlan(b, p)
	cp, err := Compile(pl.Timeline)
	if err != nil {
		b.Fatal(err)
	}
	m, err := storage.NewManager(b.TempDir(), storage.FormatDAF)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		b.Fatal(err)
	}
	for name, arr := range p.Arrays {
		for r := 0; r < arr.GridRows; r++ {
			for c := 0; c < arr.GridCols; c++ {
				blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
				blk.Data[0] = float64(r + c)
				if err := m.WriteBlock(name, int64(r), int64(c), blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	pool := buffer.NewPool(m, 0)
	eng := &Engine{Store: m, Model: disk.PaperModel(), Pool: pool}
	if _, err := eng.Exec(cp, Options{Workers: 1}); err != nil { // warm the pool
		b.Fatal(err)
	}
	misses := pool.Stats().Misses
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Exec(cp, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	events := float64(b.N) * float64(len(pl.Timeline.Events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	if got := pool.Stats().Misses; got != misses {
		b.Fatalf("pool missed %d times after warm-up, want all hits", got-misses)
	}
}
