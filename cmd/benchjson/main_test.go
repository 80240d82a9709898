package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseTrimsProcsSuffix(t *testing.T) {
	in := `BenchmarkPlannerTiers/greedy-4   3   104068993 ns/op   81681464 B/op   318215 allocs/op
BenchmarkCachePolicyScanMix/policy=lru-8   319   4015169 ns/op   0.0004 hit-rate
BenchmarkStreamedResults   20   5000 ns/op
`
	recs, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkPlannerTiers/greedy", "BenchmarkCachePolicyScanMix/policy=lru", "BenchmarkStreamedResults"}
	if len(recs) != len(want) {
		t.Fatalf("parsed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Op != want[i] {
			t.Errorf("record %d: op %q, want %q", i, r.Op, want[i])
		}
	}
	if recs[0].Metrics["allocs/op"] != 318215 {
		t.Errorf("allocs/op = %v, want 318215", recs[0].Metrics["allocs/op"])
	}
	if recs[1].Policy != "lru" {
		t.Errorf("policy = %q, want lru", recs[1].Policy)
	}
}

func writeRecs(t *testing.T, recs []Record) string {
	t.Helper()
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The allocs/op gate is fixed and tight: any rise beyond allocsTolerance
// fails regardless of the ns/op tolerance, and it applies only where both
// files report allocs/op.
func TestCompareGatesAllocs(t *testing.T) {
	allocs := func(v float64) map[string]float64 { return map[string]float64{"allocs/op": v} }
	old := writeRecs(t, []Record{
		{Op: "A", NsPerOp: 100, Metrics: allocs(1000)},
		{Op: "B", NsPerOp: 100, Metrics: allocs(1000)},
		{Op: "C", NsPerOp: 100},
		{Op: "D", NsPerOp: 100, Metrics: allocs(1000)},
	})
	for _, tc := range []struct {
		name string
		recs []Record
		want int
	}{
		{"flat", []Record{{Op: "A", NsPerOp: 100, Metrics: allocs(1000)}, {Op: "B", NsPerOp: 100, Metrics: allocs(1000)}}, 0},
		{"within tolerance", []Record{{Op: "A", NsPerOp: 110, Metrics: allocs(1000 * (1 + allocsTolerance))}}, 0},
		{"allocs rise", []Record{{Op: "A", NsPerOp: 90, Metrics: allocs(1100)}}, 1},
		{"allocs fall", []Record{{Op: "A", NsPerOp: 100, Metrics: allocs(400)}}, 0},
		{"ns and allocs", []Record{{Op: "A", NsPerOp: 200, Metrics: allocs(2000)}, {Op: "B", NsPerOp: 100, Metrics: allocs(1030)}}, 3},
		{"one side lacks allocs", []Record{{Op: "C", NsPerOp: 100, Metrics: allocs(5000)}, {Op: "D", NsPerOp: 100}}, 0},
	} {
		var sb strings.Builder
		got, err := compareFiles(old, writeRecs(t, tc.recs), 0.25, &sb)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: %d regressions, want %d\n%s", tc.name, got, tc.want, sb.String())
		}
	}
}
