package riotshare_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"riotshare"
	"riotshare/internal/bench"
	"riotshare/internal/blas"
	"riotshare/internal/core"
	"riotshare/internal/deps"
	"riotshare/internal/sched"
	"riotshare/internal/server"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// Each benchmark regenerates one table or figure of the paper's evaluation
// (§6); run `go test -bench=. -benchmem` or use cmd/expdriver for the
// formatted reports. DESIGN.md's experiment index maps paper artifacts to
// these targets.

func benchOpts() bench.Options { return bench.Options{Quick: true, Seed: 1} }

// BenchmarkTable2AddMul regenerates Table 2 (E1).
func BenchmarkTable2AddMul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PlanSpace regenerates Figure 3(a) — the §6.1 plan space
// with the ♣ variant (E2).
func BenchmarkFig3PlanSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig3a(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PredictedVsActual regenerates Figure 3(b) — every §6.1 plan
// executed physically, predicted vs actual (E3).
func BenchmarkFig3PredictedVsActual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig3b(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3TwoMM regenerates Table 3 (E4).
func BenchmarkTable3TwoMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ConfigA regenerates Figure 4 (E5).
func BenchmarkFig4ConfigA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig4(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ConfigB regenerates Figure 5 (E6).
func BenchmarkFig5ConfigB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4LinReg regenerates Table 4 (E7).
func BenchmarkTable4LinReg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6LinReg regenerates Figure 6 with the selected plans (E8);
// the full 16k-plan space search runs via `cmd/expdriver -exp fig6 -full`.
func BenchmarkFig6LinReg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareEngines regenerates the §6.1 system comparison (E9).
func BenchmarkCompareEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Compare(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerTime regenerates §6's optimization-time note (E10).
func BenchmarkOptimizerTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.OptTime(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScales regenerates the dataset-scale consistency experiment
// (E11).
func BenchmarkScales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Scales(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationApriori compares the Apriori-pruned search against the
// full power-set enumeration on the §6.1 program (the Lemma 2 design
// choice).
func BenchmarkAblationApriori(b *testing.B) {
	p := bench.AddMulPaper()
	an, err := deps.Analyze(p, deps.Options{BindParams: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sched.NewSearcher(an)
			if _, err := s.Search(context.Background(), sched.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("powerset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sched.NewSearcher(an)
			if _, err := s.Search(context.Background(), sched.SearchOptions{NoPruning: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMultiplicity measures search with and without
// Remark A.1's multiplicity reduction.
func BenchmarkAblationMultiplicity(b *testing.B) {
	for _, mode := range []struct {
		name string
		skip bool
	}{{"reduced", false}, {"unreduced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Optimize(bench.AddMulPaper(), core.Options{
					BindParams:                true,
					SkipMultiplicityReduction: mode.skip,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCostModel compares the linear I/O model against the
// per-request-overhead model (§5.4's "more refined models").
func BenchmarkAblationCostModel(b *testing.B) {
	for _, m := range []struct {
		name  string
		model riotshare.DiskModel
	}{
		{"linear", riotshare.PaperDiskModel()},
		{"refined", riotshare.RefinedDiskModel(0.008)},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Optimize(bench.AddMulPaper(), core.Options{BindParams: true, Model: m.model})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStorageFormats compares DAF and LAB-tree block write/read
// throughput ("work virtually identically for dense matrices", §6).
func BenchmarkStorageFormats(b *testing.B) {
	arr := &riotshare.Array{Name: "A", BlockRows: 64, BlockCols: 64, GridRows: 8, GridCols: 8}
	blk := blas.NewMatrix(64, 64)
	for i := range blk.Data {
		blk.Data[i] = float64(i)
	}
	for _, format := range []storage.Format{storage.FormatDAF, storage.FormatLABTree} {
		b.Run(format.String(), func(b *testing.B) {
			m, err := storage.NewManager(b.TempDir(), format)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			if err := m.Create(arr); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := int64(i % 8)
				c := int64((i / 8) % 8)
				if err := m.WriteBlock("A", r, c, blk); err != nil {
					b.Fatal(err)
				}
				if _, err := m.ReadBlock("A", r, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelExec compares one, two and four engine workers on the
// two-multiplication workload (C = A·B; E = A·D) in two regimes. "io-bound" simulates the paper's slow device
// with a per-request latency, the regime RIOTShare targets: the prefetcher
// overlaps block reads with compute and with each other, so wall clock
// drops sharply with workers while logical I/O volumes stay identical.
// "cpu-bound" uses raw local storage, where speedup instead tracks the
// machine's core count (kernels run concurrently across workers).
func BenchmarkParallelExec(b *testing.B) {
	p := riotshare.TwoMM(riotshare.TwoMMConfig{
		N1: 4, N2: 4, N3: 4, N4: 4,
		ABlock: riotshare.Dims{Rows: 64, Cols: 64},
		BBlock: riotshare.Dims{Rows: 64, Cols: 64},
		DBlock: riotshare.Dims{Rows: 64, Cols: 64},
	})
	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		b.Fatal(err)
	}
	pl := res.Best
	model := riotshare.PaperDiskModel()
	for _, regime := range []struct {
		name    string
		latency time.Duration
	}{
		{"io-bound", 2 * time.Millisecond},
		{"cpu-bound", 0},
	} {
		store, err := riotshare.NewStorage(b.TempDir(), riotshare.FormatDAF)
		if err != nil {
			b.Fatal(err)
		}
		store.ReadLatency = regime.latency
		store.WriteLatency = regime.latency
		if err := store.CreateAll(p); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.FillInputs(p, store, 1); err != nil {
			b.Fatal(err)
		}
		var one riotshare.ExecResult
		for _, workers := range []int{1, 2, 4} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers=%d", regime.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := riotshare.ExecuteOptions(pl, store, model, 0,
						riotshare.ExecOptions{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if workers == 1 {
						one = r
					} else if one.ReadBytes > 0 &&
						(r.ReadBytes != one.ReadBytes || r.WriteBytes != one.WriteBytes ||
							r.ReadReqs != one.ReadReqs || r.WriteReqs != one.WriteReqs ||
							r.PeakMemoryBytes != one.PeakMemoryBytes) {
						b.Fatalf("workers=%d: logical accounting diverged from one worker", workers)
					}
				}
			})
		}
		store.Close()
	}
}

// BenchmarkTelemetryOverhead runs the pipelined two-multiplication
// workload over a sharded store twice: "noop" with no registry installed
// (the shipped default — per-shard latency hooks are one nil check, the
// engine only fills its Result fields) and "instrumented" with
// RegisterMetrics wired to a live registry sampling per-shard read/write
// latencies on every block. The telemetry layer's acceptance bar is the
// two staying within 2% ns/op of each other; BENCH_telemetry.json
// records both so bench-check catches an instrumentation cost creeping
// into the hot path.
func BenchmarkTelemetryOverhead(b *testing.B) {
	p := riotshare.TwoMM(riotshare.TwoMMConfig{
		N1: 4, N2: 4, N3: 4, N4: 4,
		ABlock: riotshare.Dims{Rows: 64, Cols: 64},
		BBlock: riotshare.Dims{Rows: 64, Cols: 64},
		DBlock: riotshare.Dims{Rows: 64, Cols: 64},
	})
	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		b.Fatal(err)
	}
	pl := res.Best
	model := riotshare.PaperDiskModel()
	for _, mode := range []struct {
		name       string
		instrument bool
	}{
		{"noop", false},
		{"instrumented", true},
	} {
		store, err := storage.OpenSharded([]string{b.TempDir(), b.TempDir()}, storage.ShardedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if mode.instrument {
			store.RegisterMetrics(telemetry.New())
		}
		if err := store.CreateAll(p); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.FillInputs(p, store, 1); err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := riotshare.ExecuteOptions(pl, store, model, 0,
					riotshare.ExecOptions{Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
		store.Close()
	}
}

// BenchmarkStreamedResults measures the streaming delivery path and is
// the bounded-memory acceptance gate: a C = A + B result four times the
// buffer pool's byte capacity is streamed straight out of the pool, and
// the pool's post-eviction high-water mark (PeakBytes) must stay at or
// under capacity — streamed frames are retired as they go on the wire,
// so residency is flat no matter how large the result is. The streamed
// bytes are also checked bit-identical to the whole-fetch output.
// BENCH_stream.json records ns/op and MB/s so bench-check catches the
// delivery path slowing down.
func BenchmarkStreamedResults(b *testing.B) {
	const grid, block = 8, 32
	blockBytes := int64(block * block * 8)
	poolCap := 16 * blockBytes // 128 KiB
	outBytes := int64(grid*grid) * blockBytes
	if outBytes < 4*poolCap {
		b.Fatalf("setup: output %d bytes is under 4x the %d-byte pool", outBytes, poolCap)
	}
	spec := &server.ProgramSpec{
		Name:   "addgrid",
		Params: []string{"n1", "n2"},
		Bind:   map[string]int64{"n1": grid, "n2": grid},
		Arrays: []server.ArraySpec{
			{Name: "A", BlockRows: block, BlockCols: block, GridRows: grid, GridCols: grid},
			{Name: "B", BlockRows: block, BlockCols: block, GridRows: grid, GridCols: grid},
			{Name: "C", BlockRows: block, BlockCols: block, GridRows: grid, GridCols: grid},
		},
		Stmts: []server.StmtSpec{{
			Name: "s1",
			Vars: []string{"i", "j"},
			Ranges: []server.RangeSpec{
				{Var: "i", Hi: server.ExprSpec{Terms: map[string]int64{"n1": 1}}},
				{Var: "j", Hi: server.ExprSpec{Terms: map[string]int64{"n2": 1}}},
			},
			Accesses: []server.AccessSpec{
				{Type: "read", Array: "A", Row: server.ExprSpec{Terms: map[string]int64{"i": 1}}, Col: server.ExprSpec{Terms: map[string]int64{"j": 1}}},
				{Type: "read", Array: "B", Row: server.ExprSpec{Terms: map[string]int64{"i": 1}}, Col: server.ExprSpec{Terms: map[string]int64{"j": 1}}},
				{Type: "write", Array: "C", Row: server.ExprSpec{Terms: map[string]int64{"i": 1}}, Col: server.ExprSpec{Terms: map[string]int64{"j": 1}}},
			},
			Kernel: "add",
			Note:   "C[i,j]=A[i,j]+B[i,j]",
		}},
	}
	s, err := server.New(server.Config{Dir: b.TempDir(), Seed: 1, PoolBytes: poolCap})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(server.Request{Spec: spec})
	if err != nil {
		b.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != server.StateDone {
		b.Fatalf("state %v, err %v (%s)", st.State, err, st.Err)
	}
	// Correctness once: the streamed frames carry exactly the whole-fetch
	// bytes (the payload is the raw little-endian block data).
	var first bytes.Buffer
	if err := s.StreamTo(&first, id, 4); err != nil {
		b.Fatal(err)
	}
	want, err := s.Output(id, "C")
	if err != nil {
		b.Fatal(err)
	}
	// Each block frame's payload is that block's row-major bytes verbatim
	// (EncodeBlock), so rebuilding every block payload from the whole
	// fetch and requiring it appear in the stream checks bit-identity
	// without reimplementing the frame decoder here.
	streamed := first.Bytes()
	for br := 0; br < grid; br++ {
		for bc := 0; bc < grid; bc++ {
			raw := make([]byte, 0, blockBytes)
			for i := 0; i < block; i++ {
				for j := 0; j < block; j++ {
					v := want.Data[(br*block+i)*want.Cols+bc*block+j]
					raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
				}
			}
			if !bytes.Contains(streamed, raw) {
				b.Fatalf("streamed frames missing block (%d,%d) of the whole-fetch output (not bit-identical)", br, bc)
			}
		}
	}
	b.SetBytes(outBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.StreamTo(io.Discard, id, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.Pool.PeakBytes > st.Pool.BytesCap {
		b.Fatalf("pool peak %d bytes exceeds capacity %d: streaming is not bounded-memory",
			st.Pool.PeakBytes, st.Pool.BytesCap)
	}
}

// BenchmarkKernels compares the tiled GEMM against the naive triple loop
// (the GotoBLAS2-substitute kernel, DESIGN.md S6).
func BenchmarkKernels(b *testing.B) {
	n := 128
	a := blas.NewMatrix(n, n)
	bb := blas.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = float64(i % 7)
		bb.Data[i] = float64(i % 5)
	}
	dst := blas.NewMatrix(n, n)
	b.Run("gemm-tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Zero()
			blas.Gemm(dst, a, false, bb, false)
		}
	})
	b.Run("gemm-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Zero()
			blas.GemmNaive(dst, a, false, bb, false)
		}
	})
}

// BenchmarkPlannerTiers measures the three planning tiers on the TwoMM
// workload: "full" is the Apriori plan-space search (what the background
// improver runs off the query path), "greedy" is the tier-2 budgeted
// fast path a cold query pays under -plan-budget-ms, and "cached/query"
// is a whole warm query through the server — plan served from the tier-1
// cache, so planning is a map lookup and execution dominates.
// BENCH_planner.json records all three so bench-check catches the greedy
// tier's advantage eroding (or the full search speeding up enough to
// retire the tier split).
func BenchmarkPlannerTiers(b *testing.B) {
	build := func() *riotshare.Program {
		return riotshare.TwoMM(riotshare.TwoMMConfig{
			N1: 4, N2: 4, N3: 4, N4: 4,
			ABlock: riotshare.Dims{Rows: 32, Cols: 32},
			BBlock: riotshare.Dims{Rows: 32, Cols: 32},
			DBlock: riotshare.Dims{Rows: 32, Cols: 32},
		})
	}
	opt := riotshare.Options{BindParams: true}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := riotshare.OptimizeGreedy(context.Background(), build(), opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := riotshare.Optimize(build(), opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached/query", func(b *testing.B) {
		s, err := server.New(server.Config{
			Dir:        b.TempDir(),
			Seed:       1,
			Programs:   map[string]func() *riotshare.Program{"twomm": build},
			PlanBudget: 10 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		run := func() {
			id, err := s.Submit(server.Request{Program: "twomm"})
			if err != nil {
				b.Fatal(err)
			}
			if st, err := s.Wait(id); err != nil || st.State != server.StateDone {
				b.Fatalf("state %v, err %v (%s)", st.State, err, st.Err)
			}
		}
		run() // warm the plan cache (greedy tier pays once)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	})
}
