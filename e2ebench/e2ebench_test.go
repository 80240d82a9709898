package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"riotshare/internal/bench"
	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/core"
	"riotshare/internal/prog"
	"riotshare/internal/server"
)

// TestCorruptedAnswerCountsAsFailed drives real queries through the JSON
// summary path (warm) and the streamed path (out-of-core) against a
// reference whose sum for one program is off by 1e-6 relative, beyond the
// tolerance for a plan other than the reference's: every query of that
// program must count as failed, and no other query may.
func TestCorruptedAnswerCountsAsFailed(t *testing.T) {
	for _, name := range []string{"warm", "out-of-core"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := newRunner(w, 3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			if _, err := b.setUp(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			bad := w.programs()[0]
			for array, sum := range b.refs[bad].sums {
				b.refs[bad].sums[array] = sum*(1+1e-6) + 1e-6
				break
			}
			ph, err := b.phase(0, false)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, s := range ph.samples {
				if s.prog == bad {
					want++
				}
			}
			if want == 0 || ph.failed() != want {
				t.Fatalf("%d of %d queries failed, want the %d of %s", ph.failed(), len(ph.samples), want, bad.key)
			}
			res := ph.result()
			if res.Correct || res.Failed != want {
				t.Fatalf("result %+v, want correct=false failed=%d", res, want)
			}
			if f := ph.endToEnd()["verified_frac"].Value; f >= 1 {
				t.Fatalf("verified_frac %v with failures", f)
			}
		})
	}
}

func TestOracleComparison(t *testing.T) {
	ref := &reference{label: "{p}", sums: map[string]float64{"C": 1.5}}
	st := server.QueryStatus{ID: "q1", State: server.StateDone, PlanLabel: "{p}",
		Outputs: []server.OutputInfo{{Array: "C", Sum: 1.5}}}
	if err := ref.checkStatus(st); err != nil {
		t.Fatal(err)
	}
	st.Outputs[0].Sum = math.Nextafter(1.5, 2)
	if ref.checkStatus(st) == nil {
		t.Fatal("one ulp off under the reference plan passed")
	}
	st.PlanLabel = "{q}"
	if err := ref.checkStatus(st); err != nil {
		t.Fatalf("one ulp off under another plan: %v", err)
	}
	st.Outputs[0].Sum = 1.5 * (1 + 1e-6)
	if ref.checkStatus(st) == nil {
		t.Fatal("1e-6 relative error under another plan passed")
	}
	st.Outputs[0].Sum, st.State = 1.5, server.StateFailed
	if ref.checkStatus(st) == nil {
		t.Fatal("failed query passed")
	}
}

// TestStreamCorruption flips one payload bit of a well-formed stream.
func TestStreamCorruption(t *testing.T) {
	blk := blas.NewMatrix(2, 2)
	copy(blk.Data, []float64{1, 2, 3, 4.25})
	frame := func(w *bytes.Buffer, kind byte, e *blockproto.Enc) {
		if err := blockproto.WriteFrame(w, kind, e.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	var w bytes.Buffer
	frame(&w, server.StreamFrameArray, new(blockproto.Enc).Str("C").U32(2).U32(2).U32(1).U32(1))
	frame(&w, server.StreamFrameBlock, new(blockproto.Enc).Str("C").I64(0).I64(0).U32(2).U32(2).Blob(blockproto.EncodeBlock(blk)))
	frame(&w, server.StreamFrameEnd, new(blockproto.Enc).U32(1).U32(1).I64(32))
	ref := &reference{label: "{p}", sums: map[string]float64{"C": 10.25}}

	sums, err := streamSums(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkStream(sums, "{p}"); err != nil {
		t.Fatal(err)
	}
	raw := w.Bytes()
	raw[len(raw)-40] ^= 1 // inside the block payload, before the end frame
	if sums, err := streamSums(bytes.NewReader(raw)); err == nil && ref.checkStream(sums, "{p}") == nil {
		t.Fatal("corrupted stream passed")
	}
}

// TestColdShapesArePaperPrograms checks that the cold workload's specs
// plan exactly like the paper's built-in programs.
func TestColdShapesArePaperPrograms(t *testing.T) {
	for _, c := range []struct {
		spec    func(string) *server.ProgramSpec
		builtin func() *prog.Program
	}{{addMulSpec, bench.AddMulPaper}, {twoMMSpec, bench.TwoMMPaperA}, {linRegSpec, bench.LinRegPaper}} {
		p, err := c.spec("shape").Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.OptimizeGreedy(context.Background(), p, core.Options{BindParams: true})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.OptimizeGreedy(context.Background(), c.builtin(), core.Options{BindParams: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.SearchStats != want.SearchStats || got.Plans[0].Cost.LogicalIOBytes() != want.Plans[0].Cost.LogicalIOBytes() ||
			len(got.Plans[0].Timeline.Events) != len(want.Plans[0].Timeline.Events) {
			t.Errorf("%s: stats %+v io %d events %d, built-in %s: %+v io %d events %d", p.Name,
				got.SearchStats, got.Plans[0].Cost.LogicalIOBytes(), len(got.Plans[0].Timeline.Events),
				want.Best.Label, want.SearchStats, want.Plans[0].Cost.LogicalIOBytes(), len(want.Plans[0].Timeline.Events))
		}
	}
}

// TestMetricNames runs each mode briefly and checks that it reports
// exactly the metrics BENCHMARK.json and metrics.json declare.
func TestMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &decl)
	var doc struct {
		PerLayer map[string]json.RawMessage `json:"per_layer"`
	}
	readJSON(t, "metrics.json", &doc)
	for _, m := range decl.PerLayer {
		if _, ok := doc.PerLayer[m.Name]; !ok {
			t.Errorf("metrics.json does not document %s", m.Name)
		}
	}
	if len(doc.PerLayer) != len(decl.PerLayer) {
		t.Errorf("metrics.json documents %d layer metrics, BENCHMARK.json declares %d", len(doc.PerLayer), len(decl.PerLayer))
	}
	for _, traced := range []bool{false, true} {
		want := decl.EndToEnd
		if traced {
			want = decl.PerLayer
		}
		res, err := run("warm", 1, 2*time.Second, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("traced=%v: %+v", traced, res)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if len(got) != len(exp) {
			t.Fatalf("traced=%v: metrics\n%v\nwant\n%v", traced, got, exp)
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Errorf("traced=%v: metric %q, want %q", traced, got[i], exp[i])
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
