package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/deps"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/sched"
	"riotshare/internal/server"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// queryTrace is a measured query's server-side span trees.
type queryTrace struct {
	query  *telemetry.Span
	stream *telemetry.Span // nil unless the result was streamed
}

// fetchTrace waits for the query to finish (a stream can end before the
// query's result-fetch phase does) and fetches its span trees.
func fetchTrace(svc *service, id string, stream bool) (*queryTrace, error) {
	if stream {
		if _, err := svc.wait(id); err != nil {
			return nil, err
		}
	}
	q, err := svc.trace(id)
	if err != nil {
		return nil, err
	}
	t := &queryTrace{query: q}
	if stream {
		if t.stream, err = svc.trace(id + ":stream"); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func child(sp *telemetry.Span, name string) *telemetry.Span {
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func spanMs(sp *telemetry.Span) float64 {
	if sp == nil {
		return 0
	}
	return ms(sp.Duration())
}

type interval struct{ lo, hi int64 }

func spanInterval(sp *telemetry.Span) interval {
	return interval{sp.StartUnixNano, sp.StartUnixNano + sp.DurationNanos}
}

// covered is the length of the union of ivs clipped to w.
func covered(w interval, ivs []interval) int64 {
	var cl []interval
	for _, iv := range ivs {
		lo, hi := max(iv.lo, w.lo), min(iv.hi, w.hi)
		if lo < hi {
			cl = append(cl, interval{lo, hi})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].lo < cl[j].lo })
	var total, end int64
	end = w.lo
	for _, iv := range cl {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// spanLayers are the query span's children named after a layer.
var spanLayers = []string{"planning", "admission-wait", "input-fill", "exec", "result-fetch"}

// layers computes the per-layer metrics of a traced phase.
func (b *runner) layers(ph *phaseResult) (map[string]metric, error) {
	m := map[string]metric{}
	var (
		planning, execMs, kernel, fill, fetch, delivery, submit, outside, unattributed []float64
		admission                                                                      []float64
		issued, inline                                                                 float64
	)
	labels := map[*program]map[string]int{}
	for _, s := range ph.samples {
		if s.err != nil || s.trace == nil {
			continue
		}
		q := s.trace.query
		planning = append(planning, spanMs(child(q, "planning")))
		admission = append(admission, spanMs(child(q, "admission-wait")))
		fill = append(fill, spanMs(child(q, "input-fill")))
		fetch = append(fetch, spanMs(child(q, "result-fetch")))
		if pl := child(q, "planning"); pl != nil {
			if labels[s.prog] == nil {
				labels[s.prog] = map[string]int{}
			}
			labels[s.prog][pl.Annotations["plan"]]++
		}
		if ex := child(q, "exec"); ex != nil {
			execMs = append(execMs, spanMs(ex))
			k := 0.0
			for _, c := range ex.Children {
				if strings.HasPrefix(c.Name, "stage:") {
					k += spanMs(c)
				}
			}
			kernel = append(kernel, k)
			n, _ := strconv.ParseFloat(ex.Annotations["prefetchIssued"], 64) // absent = 0
			issued += n
			n, _ = strconv.ParseFloat(ex.Annotations["prefetchInline"], 64)
			inline += n
		}
		win := interval{s.sent.UnixNano(), s.done.UnixNano()}
		ivs := []interval{{s.sent.UnixNano(), s.acked.UnixNano()}}
		for _, name := range spanLayers {
			if c := child(q, name); c != nil {
				ivs = append(ivs, spanInterval(c))
			}
		}
		// Delivery: the stream span when results stream, otherwise the
		// query span's end to the verified result in hand.
		if st := s.trace.stream; st != nil {
			delivery = append(delivery, spanMs(st))
			ivs = append(ivs, spanInterval(st))
		} else {
			delivery = append(delivery, float64(s.done.UnixNano()-spanInterval(q).hi)/1e6)
		}
		lat := float64(win.hi - win.lo)
		unattributed = append(unattributed, (lat-float64(covered(win, ivs)))/lat)
		outside = append(outside, (lat-float64(covered(win, []interval{spanInterval(q)})))/1e6)
		submit = append(submit, ms(s.acked.Sub(s.sent)))
	}
	if len(planning) == 0 {
		return nil, fmt.Errorf("traced phase: no verified query with a trace")
	}
	m["core.planning_ms"] = metric{median(planning), "ms"}
	m["exec.run_ms"] = metric{median(execMs), "ms"}
	m["blas.kernel_ms"] = metric{median(kernel), "ms"}
	m["govern.admission_wait_ms"] = metric{mean(admission), "ms"}
	m["server.input_fill_ms"] = metric{median(fill), "ms"}
	m["server.result_fetch_ms"] = metric{median(fetch), "ms"}
	m["server.delivery_ms"] = metric{median(delivery), "ms"}
	m["server.submit_ms"] = metric{median(submit), "ms"}
	m["server.outside_query_ms"] = metric{median(outside), "ms"}
	m["trace.unattributed_frac"] = metric{median(unattributed), "frac"}
	traced := ph.latenciesWhere(func(s *sample) bool { return s.traced })
	untraced := ph.latenciesWhere(func(s *sample) bool { return !s.traced })
	m["trace.overhead_frac"] = metric{ratio(median(traced), median(untraced)) - 1, "frac"}
	m["exec.prefetch_issued_per_query"] = metric{ratio(issued, float64(len(execMs))), "count"}
	frac := 0.0
	if issued > 0 {
		frac = inline / issued
	}
	m["exec.prefetch_inline_frac"] = metric{frac, "frac"}

	// /stats and wire deltas cover the whole phase, traced or not.
	n := float64(len(ph.samples))
	p0, p1 := ph.before.Pool, ph.after.Pool
	hits, misses := float64(p1.Hits-p0.Hits), float64(p1.Misses-p0.Misses)
	m["buffer.hit_rate"] = metric{hits / max(hits+misses, 1), "frac"}
	m["buffer.evictions_per_query"] = metric{float64(p1.Evictions-p0.Evictions) / n, "count"}
	m["buffer.writebacks_per_query"] = metric{float64(p1.Writebacks-p0.Writebacks) / n, "count"}
	s0, s1 := ph.before.Store, ph.after.Store
	m["storage.read_reqs_per_query"] = metric{float64(s1.ReadReqs-s0.ReadReqs) / n, "count"}
	m["storage.write_reqs_per_query"] = metric{float64(s1.WriteReqs-s0.WriteReqs) / n, "count"}
	m["blockd.wire_kb_per_query"] = metric{ph.wireKB / n, "KB"}
	conns, _ := b.svc.wire()
	m["blockd.conns"] = metric{float64(conns), "count"}

	if err := b.planLayers(m); err != nil {
		return nil, err
	}
	if err := b.replayLayers(m, labels); err != nil {
		return nil, err
	}
	conflicts, err := builtinConflicts(filepath.Join(b.dir, "conflicts"), b.seed)
	if err != nil {
		return nil, err
	}
	m["server.builtin_conflicts"] = metric{float64(conflicts), "count"}
	return m, nil
}

// planRepeats is how many times each planner call is timed.
const planRepeats = 3

// planLayers times deps.Analyze and core.OptimizeGreedy directly on each
// of the workload's programs and reports the mix-weighted medians.
func (b *runner) planLayers(m map[string]metric) error {
	var greedyMs, allocKB, calls, farkas, analyzeMs float64
	for _, p := range b.w.programs() {
		wt := b.w.weight(p)
		var an, gr, al []float64
		var stats sched.Stats
		for i := 0; i < planRepeats; i++ {
			prg, err := p.build()
			if err != nil {
				return err
			}
			t := time.Now()
			if _, err := deps.Analyze(prg, deps.Options{BindParams: true}); err != nil {
				return err
			}
			an = append(an, ms(time.Since(t)))

			if prg, err = p.build(); err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t = time.Now()
			res, err := core.OptimizeGreedy(context.Background(), prg, core.Options{BindParams: true})
			d := time.Since(t)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return err
			}
			gr = append(gr, ms(d))
			al = append(al, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
			stats = res.SearchStats
		}
		analyzeMs += wt * median(an)
		greedyMs += wt * median(gr)
		allocKB += wt * median(al)
		calls += wt * float64(stats.FindScheduleCalls)
		farkas += wt * float64(stats.FarkasApps)
	}
	m["deps.analyze_ms"] = metric{analyzeMs, "ms"}
	m["core.greedy_ms"] = metric{greedyMs, "ms"}
	m["core.plan_alloc_kb"] = metric{allocKB, "KB"}
	m["sched.findschedule_calls"] = metric{calls, "count"}
	m["sched.farkas_apps"] = metric{farkas, "count"}
	return nil
}

// timedStore times the block I/O of a storage backend, and keeps apart
// the time of calls made outside a pool call: the engine's own storage
// calls, which the engine's self time must not include.
type timedStore struct {
	storage.Backend
	inPool                                 *atomic.Bool
	reads, writes, rNs, wNs, outsidePoolNs atomic.Int64
}

func (s *timedStore) reset() {
	for _, n := range []*atomic.Int64{&s.reads, &s.writes, &s.rNs, &s.wNs, &s.outsidePoolNs} {
		n.Store(0)
	}
}

func (s *timedStore) note(start time.Time, n, ns *atomic.Int64) {
	d := time.Since(start).Nanoseconds()
	n.Add(1)
	ns.Add(d)
	if !s.inPool.Load() {
		s.outsidePoolNs.Add(d)
	}
}

func (s *timedStore) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	defer s.note(time.Now(), &s.reads, &s.rNs)
	return s.Backend.ReadBlock(array, r, c)
}

func (s *timedStore) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	defer s.note(time.Now(), &s.writes, &s.wNs)
	return s.Backend.WriteBlock(array, r, c, blk)
}

// timedPool times the engine's calls into the buffer pool.
type timedPool struct {
	exec.BlockPool
	inPool                    *atomic.Bool
	acquires, puts            int64
	acquireNs, putNs, unpinNs int64
}

func (p *timedPool) Acquire(array string, r, c int64) (*blas.Matrix, error) {
	p.inPool.Store(true)
	t := time.Now()
	m, err := p.BlockPool.Acquire(array, r, c)
	p.acquireNs += time.Since(t).Nanoseconds()
	p.acquires++
	p.inPool.Store(false)
	return m, err
}

func (p *timedPool) Put(array string, r, c int64, blk *blas.Matrix) error {
	p.inPool.Store(true)
	t := time.Now()
	err := p.BlockPool.Put(array, r, c, blk)
	p.putNs += time.Since(t).Nanoseconds()
	p.puts++
	p.inPool.Store(false)
	return err
}

func (p *timedPool) Unpin(array string, r, c int64, n int) {
	p.inPool.Store(true)
	t := time.Now()
	p.BlockPool.Unpin(array, r, c, n)
	p.unpinNs += time.Since(t).Nanoseconds()
	p.inPool.Store(false)
}

// replayRuns is how many measured replays each program gets, after one
// that warms the pool.
const replayRuns = 5

// replayLayers replays each program's served plan through
// exec.Engine.RunOptions on the sequential engine over a buffer.Pool tenant
// session of the workload's pool size, with timing wrappers on the pool
// and the store, and reports the engine's self time (run minus pool,
// storage and kernel time) and the pool and storage call times. The
// out-of-core workload replays over its own pair of loopback block
// servers, the others over the oracle's local stores.
func (b *runner) replayLayers(m map[string]metric, labels map[*program]map[string]int) error {
	var nodes []*blockNode
	if b.w.blockd {
		var err error
		if nodes, err = startBlockdPair(filepath.Join(b.dir, "replay")); err != nil {
			return err
		}
		defer func() {
			for _, n := range nodes {
				n.close()
			}
		}()
	}
	var remote storage.Backend
	filled := map[string]bool{}
	if nodes != nil {
		sh, err := storage.OpenSharded([]string{nodes[0].addr(), nodes[1].addr()}, storage.ShardedOptions{})
		if err != nil {
			return err
		}
		defer sh.Close()
		remote = sh
	}
	var events, selfNs, acq, acqNs, puts, putNs, reads, rNs, writes, wNs float64
	for _, p := range b.w.programs() {
		ref := b.refs[p]
		tl, err := servedTimeline(p, ref, labels[p])
		if err != nil {
			return err
		}
		var base storage.Backend = ref.store
		if remote != nil {
			if err := fillInputs(remote, tl.Prog, b.seed, filled); err != nil {
				return err
			}
			base = remote
		}
		inPool := &atomic.Bool{}
		ts := &timedStore{Backend: base, inPool: inPool}
		pool, err := buffer.NewPoolOptions(ts, buffer.Options{CapacityBytes: b.w.cfg.PoolBytes})
		if err != nil {
			return err
		}
		var tp timedPool
		var wall, kernel, outside time.Duration
		for run := 0; run <= replayRuns; run++ {
			alias := map[string]string{}
			for name := range writtenArrays(tl.Prog) {
				clone := *tl.Prog.Arrays[name]
				clone.Name = fmt.Sprintf("replay%d.%s", run, name)
				if err := ts.Create(&clone); err != nil {
					return err
				}
				alias[name] = clone.Name
			}
			if run == 1 {
				// Run 0 only warmed the pool.
				tp = timedPool{}
				ts.reset()
				wall, kernel, outside = 0, 0, 0
			}
			tp.BlockPool, tp.inPool = pool.TenantSession("replay", alias), inPool
			eng := &exec.Engine{Store: ts, Model: disk.PaperModel(), Pool: &tp}
			outside0 := ts.outsidePoolNs.Load()
			t := time.Now()
			r, err := eng.RunOptions(tl, exec.Options{Workers: 1})
			wall += time.Since(t)
			kernel += r.CPUTime
			outside += time.Duration(ts.outsidePoolNs.Load() - outside0)
			if err != nil {
				return fmt.Errorf("replay %s: %w", p.key, err)
			}
			if err := resultFetch(pool, ts, tl, alias, ref); err != nil {
				return fmt.Errorf("replay %s: %w", p.key, err)
			}
		}
		wt, runs := b.w.weight(p), float64(replayRuns)
		poolNs := float64(tp.acquireNs + tp.putNs + tp.unpinNs)
		self := float64((wall - outside - kernel).Nanoseconds()) - poolNs
		events += wt * float64(len(tl.Events))
		selfNs += wt * self / runs
		acq += wt * float64(tp.acquires) / runs
		acqNs += wt * float64(tp.acquireNs) / runs
		puts += wt * float64(tp.puts) / runs
		putNs += wt * float64(tp.putNs) / runs
		reads += wt * float64(ts.reads.Load()) / runs
		rNs += wt * float64(ts.rNs.Load()) / runs
		writes += wt * float64(ts.writes.Load()) / runs
		wNs += wt * float64(ts.wNs.Load()) / runs
	}
	m["exec.events"] = metric{events, "count"}
	m["exec.self_ns_per_event"] = metric{selfNs / events, "ns"}
	m["buffer.acquire_ns"] = metric{ratio(acqNs, acq), "ns"}
	m["buffer.put_ns"] = metric{ratio(putNs, puts), "ns"}
	m["storage.read_us"] = metric{ratio(rNs, reads) / 1e3, "us"}
	m["storage.write_us"] = metric{ratio(wNs, writes) / 1e3, "us"}
	return nil
}

// resultFetch does what the server's result-fetch phase does after exec:
// write the outputs back, re-read and sum them (checked against the
// reference when the plans agree), then retire them.
func resultFetch(pool *buffer.Pool, st storage.Backend, tl *codegen.Timeline, alias map[string]string, ref *reference) error {
	for _, phys := range alias {
		if err := pool.InvalidateArray(phys); err != nil {
			return err
		}
	}
	for _, name := range outputArrays(tl.Prog) {
		sum, err := arraySum(st, tl.Prog.Arrays[name], alias[name])
		if err != nil {
			return err
		}
		if !sameSum(sum, ref.sums[name], true) && tl == ref.res.Plans[0].Timeline {
			return fmt.Errorf("%s sums to %v, reference %v", name, sum, ref.sums[name])
		}
	}
	for _, phys := range alias {
		pool.DiscardArray(phys)
		if err := st.Drop(phys, true); err != nil {
			return err
		}
	}
	return nil
}

func ratio(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// servedTimeline returns the timeline of the plan the server served most
// often for p: the reference plan when the labels agree, otherwise the
// matching plan of a full search.
func servedTimeline(p *program, ref *reference, labels map[string]int) (*codegen.Timeline, error) {
	label, most := ref.label, 0
	for l, n := range labels {
		if n > most || (n == most && l < label) {
			label, most = l, n
		}
	}
	for _, pl := range ref.res.Plans {
		if pl.Label == label {
			return pl.Timeline, nil
		}
	}
	prg, err := p.build()
	if err != nil {
		return nil, err
	}
	full, err := core.OptimizeCtx(context.Background(), prg, core.Options{BindParams: true})
	if err != nil {
		return nil, err
	}
	for _, pl := range full.Plans {
		if pl.Label == label {
			return pl.Timeline, nil
		}
	}
	return nil, fmt.Errorf("%s: served plan %s is in neither the reference nor the full search", p.key, label)
}

// builtinConflicts submits the four built-in programs once each, in order,
// to one fresh server and counts the queries that fail. twomm-a and
// twomm-b declare an input A of another shape than addmul's, so the count
// stays 2 until logical names stop colliding.
func builtinConflicts(dir string, seed int64) (int, error) {
	srv, err := server.New(server.Config{Dir: dir, Seed: seed, PlanBudget: 250 * time.Millisecond})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	failed := 0
	for _, name := range []string{"addmul", "twomm-a", "twomm-b", "linreg"} {
		id, err := srv.Submit(server.Request{Program: name})
		if err != nil {
			return 0, err
		}
		st, err := srv.Wait(id)
		if err != nil {
			return 0, err
		}
		if st.State != server.StateDone {
			failed++
		}
	}
	return failed, nil
}
