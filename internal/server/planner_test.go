package server

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"riotshare/internal/core"
	"riotshare/internal/exec"
	"riotshare/internal/prog"
)

// The plan cache must hold at most PlanCacheEntries tables, retire the
// least recently used beyond that, and report size and evictions in both
// Stats and the metrics registry. The same builder is registered under
// three names: plan tables are keyed by program name, while the arrays
// keep one consistent shape in storage.
func TestPlanCacheLRUBound(t *testing.T) {
	s, err := New(Config{
		Dir:  t.TempDir(),
		Seed: testSeed,
		Programs: map[string]func() *prog.Program{
			"am2": smallAddMul,
			"am3": smallAddMul,
			"am4": smallAddMul,
		},
		PlanCacheEntries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, name := range []string{"am2", "am3", "am4"} {
		id, err := s.Submit(Request{Program: name})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("%s: state %v, err %v (%s)", name, st.State, err, st.Err)
		}
	}
	stats := s.Stats()
	if stats.PlanCacheSize > 2 {
		t.Errorf("plan cache size = %d, want <= 2", stats.PlanCacheSize)
	}
	if stats.PlanCacheEvictions < 1 {
		t.Errorf("plan cache evictions = %d, want >= 1", stats.PlanCacheEvictions)
	}
	if stats.PlanCacheMisses != 3 || stats.PlanCacheHits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/3", stats.PlanCacheHits, stats.PlanCacheMisses)
	}

	// am2 was the least recently used and must have been evicted: a
	// resubmission misses again instead of hitting.
	id, err := s.Submit(Request{Program: "am2"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("am2 again: state %v, err %v (%s)", st.State, err, st.Err)
	}
	stats = s.Stats()
	if stats.PlanCacheMisses != 4 {
		t.Errorf("misses after resubmitting evicted program = %d, want 4", stats.PlanCacheMisses)
	}
	if stats.PlanCacheEvictions < 2 {
		t.Errorf("evictions after fourth miss = %d, want >= 2", stats.PlanCacheEvictions)
	}

	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"riotshare_plan_cache_entries",
		"riotshare_plan_cache_evictions_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// A budgeted server plans cold queries on the greedy tier, serves repeats
// from the cache tier, keeps outputs bit-identical to a standalone run,
// and exposes the tier split in Stats and as separated
// riotshare_planning_seconds{tier} histograms.
func TestGreedyTierPlanning(t *testing.T) {
	_, wantOuts, _ := standaloneRun(t, smallAddMul)

	s, err := New(Config{
		Dir:        t.TempDir(),
		Seed:       testSeed,
		Programs:   map[string]func() *prog.Program{"addmul-small": smallAddMul},
		PlanBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids [2]string
	for i := range ids {
		id, err := s.Submit(Request{Program: "addmul-small"})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("query %d: state %v, err %v (%s)", i, st.State, err, st.Err)
		}
		ids[i] = id
	}

	stats := s.Stats()
	if got := stats.PlanningTiers["greedy"].Count; got != 1 {
		t.Errorf("greedy-tier plannings = %d, want 1 (tiers: %+v)", got, stats.PlanningTiers)
	}
	if got := stats.PlanningTiers["cache"].Count; got != 1 {
		t.Errorf("cache-tier plannings = %d, want 1 (tiers: %+v)", got, stats.PlanningTiers)
	}
	if got := stats.PlanningTiers["full"].Count; got != 0 {
		t.Errorf("full-tier plannings = %d, want 0 under a plan budget", got)
	}

	// Greedy-planned queries still produce bit-identical outputs.
	for _, id := range ids {
		for name, want := range wantOuts {
			got, err := s.Output(id, name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("query %s: %s[%d] = %v, want %v (not bit-identical)",
						id, name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}

	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`riotshare_planning_seconds_bucket{tier="greedy"`,
		`riotshare_planning_seconds_bucket{tier="cache"`,
		`riotshare_planning_seconds_count{tier="greedy"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing separated tier series %q", want)
		}
	}
}

// A cache entry holds the plan table and nothing else of the planner's
// output: the dependence analysis and the searcher's memo tables are
// dropped on both the greedy and the full tier, so resident entries do not
// pin planning scratch. What it gains is the served plan compiled for
// execution: compiled on the first query, reused by the next, and
// released with the entry when the LRU evicts it.
func TestPlanCacheRetainsOnlyPlanTable(t *testing.T) {
	for _, budget := range []time.Duration{10 * time.Second, 0} {
		s, err := New(Config{
			Dir:  t.TempDir(),
			Seed: testSeed,
			Programs: map[string]func() *prog.Program{
				"addmul-small": smallAddMul,
				"addmul-other": smallAddMul,
			},
			PlanBudget:       budget,
			PlanCacheEntries: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		run := func(name string) {
			t.Helper()
			id, err := s.Submit(Request{Program: name})
			if err != nil {
				t.Fatal(err)
			}
			if st, err := s.Wait(id); err != nil || st.State != StateDone {
				t.Fatalf("budget %v: state %v, err %v (%s)", budget, st.State, err, st.Err)
			}
		}
		compiled := func() (*exec.Plan, int) {
			t.Helper()
			s.planMu.Lock()
			defer s.planMu.Unlock()
			var cp *exec.Plan
			n := 0
			for _, c := range s.planCache["prog:addmul-small"].compiled {
				if c != nil {
					cp, n = c, n+1
				}
			}
			return cp, n
		}

		run("addmul-small")
		s.planMu.Lock()
		e := s.planCache["prog:addmul-small"]
		res, tier := e.res, e.tier
		s.planMu.Unlock()
		if res == nil || len(res.Plans) == 0 {
			t.Fatalf("budget %v: cached entry has no plan table", budget)
		}
		if res.Analysis != nil || res.Searcher != nil {
			t.Errorf("budget %v (tier %s): cached entry retains Analysis=%v Searcher=%v", budget, tier, res.Analysis != nil, res.Searcher != nil)
		}
		first, n := compiled()
		if n != 1 {
			t.Fatalf("budget %v: %d compiled plans after one query, want 1", budget, n)
		}
		run("addmul-small")
		if again, n := compiled(); again != first || n != 1 {
			t.Errorf("budget %v: second query compiled again (%p -> %p, %d compiled)", budget, first, again, n)
		}

		// Evicting the entry must release its compiled plan.
		freed := make(chan struct{})
		runtime.SetFinalizer(first, func(*exec.Plan) { close(freed) })
		first, e, res = nil, nil, nil
		run("addmul-other")
		s.planMu.Lock()
		_, resident := s.planCache["prog:addmul-small"]
		s.planMu.Unlock()
		if resident {
			t.Fatalf("budget %v: entry not evicted by a one-entry cache", budget)
		}
		released := false
		for k := 0; k < 20 && !released; k++ {
			runtime.GC()
			select {
			case <-freed:
				released = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !released {
			t.Errorf("budget %v: evicted entry's compiled plan is still reachable", budget)
		}
		s.Close()
	}
}

// The improver's hot swap, driven deterministically: a baseline-only plan
// table is installed in the cache as if the greedy tier had produced it,
// one query runs on it, improveOne is invoked synchronously, and a second
// query must then run on a strictly-better plan with bit-identical
// outputs — the acceptance criterion for tier 3.
func TestImproverHotSwapDeterministic(t *testing.T) {
	s, err := New(Config{
		Dir:      t.TempDir(),
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Install a deliberately weak table: the no-sharing baseline only.
	base, err := core.OptimizeSubsets(smallAddMul(), core.Options{BindParams: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Plans) != 1 {
		t.Fatalf("baseline-only table has %d plans, want 1", len(base.Plans))
	}
	const key = "prog:addmul-small"
	ready := make(chan struct{})
	close(ready)
	e := &planEntry{ready: ready, key: key, res: base, tier: tierGreedy}
	s.planMu.Lock()
	e.elem = s.planLRU.PushFront(e)
	s.planCache[key] = e
	s.planMu.Unlock()
	oldIO := base.Plans[0].Cost.LogicalIOBytes()

	run := func() QueryStatus {
		t.Helper()
		id, err := s.Submit(Request{Program: "addmul-small"})
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("state %v, err %v (%s)", st.State, err, st.Err)
		}
		return st
	}
	st1 := run()
	s.planMu.Lock()
	before := e.compiled[st1.PlanIndex]
	s.planMu.Unlock()
	if before == nil || before.Timeline() != base.Plans[st1.PlanIndex].Timeline {
		t.Fatal("first query's plan was not compiled from the cached table")
	}

	s.improveOne(context.Background(), improveJob{key: key, prog: smallAddMul()})
	if got := s.impSwaps.Load(); got != 1 {
		t.Fatalf("improver swaps = %d, want 1", got)
	}
	s.planMu.Lock()
	swapped, tier := e.res, e.tier
	s.planMu.Unlock()
	if swapped == base {
		t.Fatal("plan table was not hot-swapped")
	}
	if tier != tierFull {
		t.Errorf("swapped entry tier = %q, want %q", tier, tierFull)
	}
	if swapped.Analysis != nil || swapped.Searcher != nil {
		t.Errorf("swapped-in table retains Analysis=%v Searcher=%v", swapped.Analysis != nil, swapped.Searcher != nil)
	}
	newIO := swapped.Plans[0].Cost.LogicalIOBytes()
	if newIO >= oldIO {
		t.Errorf("swapped plan logical I/O = %d, want < %d", newIO, oldIO)
	}
	t.Logf("hot swap: %s (%d B) -> %s (%d B)",
		base.Plans[0].Label, oldIO, swapped.Plans[0].Label, newIO)

	// A repeat invocation must not re-plan or double-swap.
	s.improveOne(context.Background(), improveJob{key: key, prog: smallAddMul()})
	if got := s.impSwaps.Load(); got != 1 {
		t.Errorf("improver swaps after duplicate job = %d, want 1", got)
	}

	st2 := run()
	if st2.PlanLabel == st1.PlanLabel {
		t.Errorf("second query still ran plan %q; expected the swapped-in plan", st2.PlanLabel)
	}
	s.planMu.Lock()
	after := e.compiled[st2.PlanIndex]
	s.planMu.Unlock()
	if after == nil || after.Timeline() != swapped.Plans[st2.PlanIndex].Timeline {
		t.Error("second query did not run a plan compiled from the swapped-in table")
	}

	// Bit-identical results before and after the swap.
	for _, name := range outputNames(t, smallAddMul()) {
		a, err := s.Output(st1.ID, name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Output(st2.ID, name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s[%d] = %v before swap, %v after (not bit-identical)",
					name, i, a.Data[i], b.Data[i])
			}
		}
	}
}

// outputNames lists a program's persistent written arrays.
func outputNames(t *testing.T, p *prog.Program) []string {
	t.Helper()
	written := map[string]bool{}
	for _, st := range p.Stmts {
		if w := st.WriteAccess(); w != nil {
			written[w.Array] = true
		}
	}
	var names []string
	for name, arr := range p.Arrays {
		if written[name] && !arr.Transient {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		t.Fatal("program has no persistent outputs")
	}
	return names
}

// The full tier-1/2/3 loop under live traffic: a budgeted server with the
// improver enabled plans a cold query on the greedy tier, the background
// improver re-plans it with the full search, and the cached table ends at
// exactly the full search's best logical I/O — never worse than greedy.
func TestImproverLive(t *testing.T) {
	full, err := core.Optimize(smallAddMul(), core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	fullBestIO := full.Plans[0].Cost.LogicalIOBytes()

	s, err := New(Config{
		Dir:          t.TempDir(),
		Seed:         testSeed,
		Programs:     map[string]func() *prog.Program{"addmul-small": smallAddMul},
		PlanBudget:   10 * time.Second,
		PlanImprover: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	id, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("state %v, err %v (%s)", st.State, err, st.Err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		stats := s.Stats()
		if stats.Improver != nil && stats.Improver.Runs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("improver never ran (stats: %+v)", stats.Improver)
		}
		time.Sleep(10 * time.Millisecond)
	}

	s.planMu.Lock()
	e := s.planCache["prog:addmul-small"]
	var cachedIO int64 = -1
	if e != nil && e.res != nil && len(e.res.Plans) > 0 {
		cachedIO = e.res.Plans[0].Cost.LogicalIOBytes()
	}
	s.planMu.Unlock()
	// After the improver ran, the cached best is min(greedy, full-best);
	// the full search enumerates every greedy combination, so that minimum
	// is exactly the full search's best.
	if cachedIO != fullBestIO {
		t.Errorf("cached best logical I/O after improvement = %d, want %d (full search's best)",
			cachedIO, fullBestIO)
	}
	if swaps := s.impSwaps.Load(); swaps > 1 {
		t.Errorf("improver swaps = %d, want 0 or 1 for one entry", swaps)
	}

	stats := s.Stats()
	if stats.Improver == nil {
		t.Fatal("Stats.Improver missing with the improver enabled")
	}
	if stats.Improver.Swaps != s.impSwaps.Load() {
		t.Errorf("Stats.Improver.Swaps = %d, counter = %d", stats.Improver.Swaps, s.impSwaps.Load())
	}

	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"riotshare_plan_improver_runs_total 1",
		"riotshare_plan_improver_queue 0",
		fmt.Sprintf("riotshare_plan_improver_swaps_total %d", s.impSwaps.Load()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A post-improvement query serves from the (possibly swapped) cache
	// and completes; then the server shuts down cleanly with the improver
	// goroutine running.
	id2, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id2); err != nil || st.State != StateDone {
		t.Fatalf("post-improvement query: state %v, err %v (%s)", st.State, err, st.Err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
