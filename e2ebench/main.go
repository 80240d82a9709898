// Command e2ebench is riotshare's end-to-end service benchmark. It starts
// server.Server in-process on a loopback HTTP listener (and, for the
// out-of-core workload, two riotblockd servers on loopback listeners that
// the store is striped over), drives one named workload through /submit
// and /results or /results/stream from closed-loop clients, verifies every
// answer against a reference run, and prints one JSON line of metrics:
//
//	e2ebench -workload warm|cold|out-of-core -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it reports
// the per-layer breakdown, measured from outside the program: /trace span
// trees, /stats counters, counting wrappers on the blockd listeners, and
// direct timed calls into the planner and a replay of the served plans
// through the engine and the buffer pool. e2ebench/metrics.json says which
// end-to-end metric each layer metric should move, on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"riotshare/internal/server"
)

// workdir holds each run's stores, under the checkout's build directory;
// a run removes its own.
const workdir = ".bench_build"

// setupRounds is how many times an untraced run sets the service up; it
// reports the median and measures on the last one.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: warm, cold or out-of-core")
		seed    = flag.Int64("seed", 1, "seed for program order, tenant labels, cold program names and the input data")
		seconds = flag.Int("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = report the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runner is one run's state: the workload, its references and the service
// under measurement.
type runner struct {
	w       *workload
	seed    int64
	dir     string
	refs    map[*program]*reference
	tenants []string
	svc     *service
	// next numbers submissions, so cold program names are never reused.
	next int
}

func run(name string, seed int64, measure time.Duration, traced bool, workdir string) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	b, err := newRunner(w, seed, dir)
	if err != nil {
		return nil, err
	}
	defer b.close()
	logf("%s: references for %d programs in %v", name, len(b.refs), time.Since(start).Round(time.Millisecond))

	rounds := setupRounds
	if traced {
		rounds = 1
	}
	var setups []float64
	for i := 0; i < rounds; i++ {
		if b.svc != nil {
			b.svc.close()
			b.svc = nil
		}
		d, err := b.setUp(filepath.Join(dir, fmt.Sprintf("service-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	logf("%s: set-up %v s", name, setups)

	// One unmeasured block per client lets caches fill and lazy set-up
	// finish before timing.
	if _, err := b.phase(0, false); err != nil {
		return nil, err
	}
	if !traced {
		ph, err := b.phase(measure, false)
		if err != nil {
			return nil, err
		}
		res := ph.result()
		res.Metrics = ph.endToEnd()
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		return res, nil
	}
	ph, err := b.phase(measure, true)
	if err != nil {
		return nil, err
	}
	res := ph.result()
	res.Metrics, err = b.layers(ph)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// newRunner labels the workload's tenants and computes the reference
// answer of each of its programs under dir.
func newRunner(w *workload, seed int64, dir string) (*runner, error) {
	b := &runner{w: w, seed: seed, dir: dir, refs: map[*program]*reference{}}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.clients; i++ {
		b.tenants = append(b.tenants, fmt.Sprintf("tenant-%d-%04x", i, rng.Intn(1<<16)))
	}
	for _, p := range w.programs() {
		prg, err := p.build()
		if err == nil {
			b.refs[p], err = newReference(prg, p.subsets, seed, filepath.Join(dir, "ref-"+p.key))
		}
		if err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// close stops the service and closes the reference stores.
func (b *runner) close() {
	if b.svc != nil {
		b.svc.close()
		b.svc = nil
	}
	for _, ref := range b.refs {
		if ref != nil {
			ref.store.Close()
		}
	}
}

// setUp starts a fresh service and brings it to steady state: shared
// inputs filled and every program's plan cached (improver included). The
// returned duration is the workload's set-up time.
func (b *runner) setUp(dir string) (time.Duration, error) {
	start := time.Now()
	svc, err := startService(b.w, b.seed, dir)
	if err != nil {
		return 0, err
	}
	b.svc = svc
	for _, p := range b.w.programs() {
		b.next++
		if _, _, err := svc.query(p, b.next, b.tenants[0], b.w.stream, b.refs[p]); err != nil {
			return 0, fmt.Errorf("set-up query %s: %w", p.key, err)
		}
	}
	if _, err := svc.idle(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// sample is one measured query.
type sample struct {
	prog *program
	id   string
	// sent, acked, done: submit sent, submit answered, verified result in
	// hand.
	sent, acked, done time.Time
	err               error
	// traced marks the queries whose span trees were fetched; trace holds
	// them once verified.
	traced bool
	trace  *queryTrace
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.sent) }

// phaseResult is one closed-loop measurement.
type phaseResult struct {
	samples       []sample
	elapsed       time.Duration
	before, after server.Stats
	cpu           time.Duration
	allocBytes    uint64
	heapPeak      uint64
	wireKB        float64
}

// phase drives the workload closed-loop for d, one goroutine per client,
// each finishing the block of the mix it is in when d runs out (d = 0 runs
// exactly one block per client). With traced set every second block of
// each client fetches its queries' span trees after their results,
// outside their latency; the blocks in between measure the same moments
// untraced, for the tracing overhead.
func (b *runner) phase(d time.Duration, traced bool) (*phaseResult, error) {
	svc := b.svc
	ph := &phaseResult{}
	var err error
	if ph.before, err = svc.stats(); err != nil {
		return nil, err
	}
	_, bytes0 := svc.wire()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	stopPeak := sampleHeapPeak(&ph.heapPeak)

	start := time.Now()
	deadline := start.Add(d)
	perClient := make([][]sample, b.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		rng := rand.New(rand.NewSource(b.seed*7919 + int64(c) + int64(b.next)))
		firstN := b.next + c*100000
		wg.Add(1)
		go func(c int, rng *rand.Rand, n int) {
			defer wg.Done()
			for blk := 0; blk == 0 || time.Now().Before(deadline); blk++ {
				for _, p := range b.w.block(rng) {
					n++
					s := sample{prog: p, sent: time.Now(), traced: traced && blk%2 == 1}
					s.id, s.acked, s.err = svc.query(p, n, b.tenants[c], b.w.stream, b.refs[p])
					s.done = time.Now()
					if s.traced && s.err == nil {
						s.trace, s.err = fetchTrace(svc, s.id, b.w.stream)
					}
					perClient[c] = append(perClient[c], s)
				}
			}
		}(c, rng, firstN)
	}
	wg.Wait()
	b.next += b.w.clients * 100000
	var last time.Time
	for _, ss := range perClient {
		for _, s := range ss {
			if s.done.After(last) {
				last = s.done
			}
		}
		ph.samples = append(ph.samples, ss...)
	}
	ph.elapsed = last.Sub(start)
	if ph.after, err = svc.idle(); err != nil {
		return nil, err
	}
	ph.cpu = cpuTime() - cpu0
	stopPeak()
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	_, bytes1 := svc.wire()
	ph.wireKB = float64(bytes1-bytes0) / 1024
	for _, s := range ph.samples {
		if s.err != nil {
			logf("%s: query %s (%s) failed: %v", b.w.name, s.id, s.prog.key, s.err)
		}
	}
	return ph, nil
}

func (ph *phaseResult) failed() int {
	n := 0
	for _, s := range ph.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (ph *phaseResult) result() *result {
	f := ph.failed()
	return &result{Correct: f == 0, Attempted: len(ph.samples), Failed: f}
}

// latencies returns the verified queries' latencies in milliseconds.
func (ph *phaseResult) latencies() []float64 {
	return ph.latenciesWhere(func(*sample) bool { return true })
}

func (ph *phaseResult) latenciesWhere(keep func(*sample) bool) []float64 {
	var l []float64
	for i := range ph.samples {
		if s := &ph.samples[i]; s.err == nil && keep(s) {
			l = append(l, ms(s.latency()))
		}
	}
	return l
}

// perQuery divides a phase total by its attempted queries.
func (ph *phaseResult) perQuery(x float64) float64 { return x / float64(len(ph.samples)) }

func (ph *phaseResult) endToEnd() map[string]metric {
	lat := ph.latencies()
	ok := float64(len(lat))
	st0, st1 := ph.before.Store, ph.after.Store
	return map[string]metric{
		"qps":                     {ok / ph.elapsed.Seconds(), "1/s"},
		"p50_ms":                  {quantile(lat, 0.50), "ms"},
		"p90_ms":                  {quantile(lat, 0.90), "ms"},
		"verified_frac":           {ok / float64(len(ph.samples)), "frac"},
		"cpu_ms_per_query":        {ph.perQuery(ms(ph.cpu)), "ms"},
		"alloc_kb_per_query":      {ph.perQuery(float64(ph.allocBytes) / 1024), "KB"},
		"heap_peak_mb":            {float64(ph.heapPeak) / (1 << 20), "MB"},
		"phys_read_kb_per_query":  {ph.perQuery(float64(st1.ReadBytes-st0.ReadBytes) / 1024), "KB"},
		"phys_write_kb_per_query": {ph.perQuery(float64(st1.WriteBytes-st0.WriteBytes) / 1024), "KB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeapPeak records the largest Go heap (live and not yet collected
// objects) seen every 5 ms until the returned stop is called.
func sampleHeapPeak(peak *uint64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(finished)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
