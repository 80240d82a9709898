// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON array of benchmark records, one per benchmark line:
// name, iterations, ns/op, and every extra metric the benchmark reported
// (B/op, allocs/op, custom metrics like the buffer pool's hit-rate).
//
//	go test -run '^$' -bench 'Pool' ./internal/buffer | benchjson -out BENCH_pool.json
//
// `make bench-json` uses it to seed the performance trajectory artifacts
// (BENCH_pool.json, BENCH_cache.json, BENCH_shard.json) that CI uploads on
// every run.
//
// With -compare it instead diffs two such JSON files and fails (exit 1) on
// a ns/op regression beyond the tolerance, or on an allocs/op rise beyond
// the fixed allocsTolerance in any benchmark both files report allocs/op
// for — the CI bench-regression gate:
//
//	benchjson -compare old.json new.json -tolerance 0.25
//
// Benchmark names are recorded without the trailing -N GOMAXPROCS suffix,
// so baselines compare across machines with different CPU counts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// allocsTolerance is the allowed fractional allocs/op increase in -compare
// mode. Allocation counts are deterministic for a given input, unlike wall
// time, so the gate on them is tight and not configurable.
const allocsTolerance = 0.02

// Record is one benchmark result.
type Record struct {
	Op         string  `json:"op"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Policy is extracted from "policy=<name>" sub-benchmark path
	// segments (the eviction-policy comparison in BENCH_cache.json keys
	// on it).
	Policy string `json:"policy,omitempty"`
	// HitRate surfaces the buffer-pool benchmarks' custom metric at the
	// top level when present.
	HitRate *float64           `json:"hit_rate,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// policyOf extracts the value of a "policy=<name>" path segment from a
// benchmark name (GOMAXPROCS suffix already trimmed) like
// BenchmarkCachePolicyScanMix/policy=lru.
func policyOf(name string) string {
	for _, seg := range strings.Split(name, "/") {
		if val, ok := strings.CutPrefix(seg, "policy="); ok {
			return val
		}
	}
	return ""
}

// trimProcs drops the -N GOMAXPROCS suffix `go test` appends to a
// benchmark name when N > 1.
func trimProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > strings.LastIndex(name, "/") {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func main() {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	out := fs.String("out", "BENCH_pool.json", "output JSON file (- for stdout)")
	compare := fs.Bool("compare", false, "compare mode: benchjson -compare old.json new.json [-tolerance 0.25]; exits 1 on ns/op regressions beyond the tolerance or allocs/op rises beyond 2%")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional ns/op increase in -compare mode (0.25 = +25%)")
	// Accept flags interleaved with the positional file arguments
	// (-compare old.json new.json -tolerance 0.25), which stdlib flag
	// parsing alone would stop at.
	args, pos := os.Args[1:], []string(nil)
	for len(args) > 0 {
		// A bare "-" is a positional (stdout/stdin marker), not a flag —
		// the flag package would return it unconsumed and loop forever.
		if strings.HasPrefix(args[0], "-") && args[0] != "-" {
			fs.Parse(args)
			args = fs.Args()
			continue
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	if *compare {
		if len(pos) != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressions, err := compareFiles(pos[0], pos[1], *tolerance, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d regression(s): ns/op beyond %.0f%% or allocs/op beyond %.0f%%\n", regressions, *tolerance*100, allocsTolerance*100)
			os.Exit(1)
		}
		return
	}
	recs, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d records to %s\n", len(recs), *out)
}

// loadRecords reads one benchjson output file.
func loadRecords(path string) (map[string]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]Record, len(recs))
	for _, r := range recs {
		out[r.Op] = r
	}
	return out, nil
}

// compareFiles diffs two benchjson files by benchmark name and reports the
// number of regressions: ns/op beyond the tolerance, and allocs/op beyond
// allocsTolerance where both files report it. Benchmarks present in only
// one file are listed but never fail the gate (new benchmarks land, old
// ones retire); improvements are reported for the trajectory log.
func compareFiles(oldPath, newPath string, tolerance float64, w io.Writer) (regressions int, err error) {
	oldRecs, err := loadRecords(oldPath)
	if err != nil {
		return 0, err
	}
	newRecs, err := loadRecords(newPath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(oldRecs))
	for name := range oldRecs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-60s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		o := oldRecs[name]
		n, ok := newRecs[name]
		if !ok {
			fmt.Fprintf(w, "%-60s %14.0f %14s %8s\n", name, o.NsPerOp, "-", "gone")
			continue
		}
		if o.NsPerOp <= 0 {
			continue
		}
		delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp
		verdict := ""
		if delta > tolerance {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%%%s\n", name, o.NsPerOp, n.NsPerOp, delta*100, verdict)
		oa, okOld := o.Metrics["allocs/op"]
		na, okNew := n.Metrics["allocs/op"]
		if okOld && okNew {
			verdict = ""
			if na > oa*(1+allocsTolerance) {
				verdict = "  REGRESSION"
				regressions++
			}
			pct := 0.0 // from a zero-alloc baseline: +0.0% or +Inf%, never NaN
			if oa > 0 {
				pct = (na - oa) / oa * 100
			} else if na > 0 {
				pct = math.Inf(1)
			}
			fmt.Fprintf(w, "%-60s %14.0f %14.0f %+7.1f%%%s\n", "  allocs/op", oa, na, pct, verdict)
		}
	}
	// Benchmarks only the new file has (a benchmark that just landed, run
	// against a baseline predating it): note them, in stable order, and
	// skip the comparison — there is nothing to regress against until the
	// baseline is refreshed.
	var added []string
	for name := range newRecs {
		if _, ok := oldRecs[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "%-60s %14s %14.0f %8s  skipped: no baseline\n", name, "-", newRecs[name].NsPerOp, "new")
	}
	return regressions, nil
}

// parse extracts benchmark lines of the form
//
//	BenchmarkName-8   123   4567 ns/op   0.98 hit-rate   12 B/op   3 allocs/op
func parse(sc *bufio.Scanner) ([]Record, error) {
	var recs []Record
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. a "Benchmark..." log line, not a result row
		}
		op := trimProcs(fields[0])
		rec := Record{Op: op, Iterations: iters, Policy: policyOf(op), Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			unit := fields[i+1]
			switch unit {
			case "ns/op":
				rec.NsPerOp = v
			case "hit-rate":
				hr := v
				rec.HitRate = &hr
				rec.Metrics[unit] = v
			default:
				rec.Metrics[unit] = v
			}
		}
		if len(rec.Metrics) == 0 {
			rec.Metrics = nil
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}
