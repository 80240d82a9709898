// pipeline.go is the execution engine: it runs a compiled Plan on a pool
// of kernel workers while an asynchronous prefetcher walks the plan ahead
// of execution and issues block reads early. The dependence DAG (memory
// dataflow inside hold intervals, RAW/WAR/WAW on disk state) decides what
// may run concurrently; workers take ready events in the order they
// became ready.
//
// Two invariants make the engine a validation of the paper rather than a
// departure from it:
//
//  1. Logical I/O accounting is byte-for-byte the cost model's prediction
//     regardless of worker count: Result's volumes and peak come from the
//     compiled plan (cost.Evaluate), and the physical run only carries
//     them out.
//  2. Numerics are bit-identical to sequential execution. Every kernel
//     consumes the same operand values in the same order: accumulator
//     chains are serialized by write-write edges, shared buffers by
//     producer→consumer edges, so floating-point summation order never
//     changes.
//
// PeakMemoryBytes therefore reports the plan's logical working-set peak
// (what the optimizer bounded with the memory cap, §4.2). The physical
// resident set can exceed it: events run in dependence order, not
// timeline order, so more hold intervals may be open at once than the
// timeline ever has, and the worker pool's per-event operand blocks and
// the prefetch window come on top. The prefetch window is bounded by the
// cap's spare headroom (cap − logical peak) and never issues a read past
// an unexecuted write of the same block.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/blas"
)

// Options configures execution.
type Options struct {
	// Workers is the number of concurrent kernel workers (values <= 1 run
	// one).
	Workers int
	// PrefetchDepth caps the number of prefetched-but-unconsumed blocks
	// (<= 0 selects 2*Workers). A nonzero Engine.MemCapBytes additionally
	// shrinks the window to the cap's headroom above the plan's peak.
	PrefetchDepth int
	// Pool, when non-nil, routes physical block I/O through a
	// sharing-aware buffer pool (overrides Engine.Pool for this run). With
	// a pool the prefetcher warms pool frames instead of holding a private
	// cache, so prefetched blocks are shared with concurrent queries too.
	Pool BlockPool
}

// pfEntry is the per-run state of one prefetch-walk entry: a coalesced
// block read issued either by the prefetcher (ahead of execution, holding
// a window slot) or claimed inline by the first consumer to need it, never
// both. refs reaching zero retires the entry.
type pfEntry struct {
	refs     int32 // consumers that have not claimed their read yet
	unread   int32 // consumers that have not taken blk yet; the last drops it
	issued   bool
	slotHeld bool          // the prefetcher holds a window slot until fully consumed
	done     chan struct{} // closed when blk/err are set (no-pool runs only)
	blk      *blas.Matrix
	err      error
}

// runState is the shared state of one run.
type runState struct {
	e  *Engine
	cp *Plan

	// mu guards the scheduler (indeg, ready, next, remaining, stopped) and
	// the interval state (ivRefs, ivBuf, ivPins).
	mu    sync.Mutex
	wake  sync.Cond
	indeg []int32
	// ready lists events in the order they became runnable (each exactly
	// once); ready[next:] are not taken yet.
	ready     []int32
	next      int
	remaining int
	stopped   bool
	ivRefs    []int32
	ivBuf     []*blas.Matrix
	// ivPins counts pool pins owned by active hold intervals (pool mode):
	// event pins transfer here while an interval stays active and are
	// released when its last accessor completes.
	ivPins []int32

	pfMu  sync.Mutex
	pf    []pfEntry
	slots chan struct{}
	// pfWG tracks the prefetcher and every read goroutine it spawned;
	// Exec joins it so no straggler touches the pool or storage after the
	// run returns.
	pfWG sync.WaitGroup

	cancel  chan struct{}
	failErr error
	once    sync.Once

	cpuNanos atomic.Int64
	// stageMu guards stageNanos, the per-statement kernel time sums that
	// become Result.StageTimes. pfIssued/pfInline count prefetch reads
	// issued ahead of use vs. claimed inline by a consumer.
	stageMu    sync.Mutex
	stageNanos map[string]int64
	pfIssued   atomic.Int64
	pfInline   atomic.Int64
}

// worker is one kernel worker's per-event scratch, reused across events.
type worker struct {
	pins  []int32 // blocks this event holds one pool pin on, one entry per pin
	local []localBlock
	in    []*blas.Matrix
}

// localBlock is a block materialized at the current event.
type localBlock struct {
	block int32
	m     *blas.Matrix
}

func (w *worker) lookup(b int32) *blas.Matrix {
	for _, l := range w.local {
		if l.block == b {
			return l.m
		}
	}
	return nil
}

// Exec runs a compiled plan. Workers <= 1 runs one worker. It fails before
// any I/O when the engine's memory cap is below the plan's peak. The plan
// is not modified, so one Plan may run many times, concurrently too.
func (e *Engine) Exec(cp *Plan, opt Options) (Result, error) {
	eng := *e
	if opt.Pool != nil {
		eng.Pool = opt.Pool
	}
	res := cp.logical
	if eng.MemCapBytes > 0 && res.PeakMemoryBytes > eng.MemCapBytes {
		return Result{}, fmt.Errorf("exec: memory cap exceeded: %d > %d bytes", res.PeakMemoryBytes, eng.MemCapBytes)
	}
	workers := max(opt.Workers, 1)
	depth := opt.PrefetchDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	if eng.MemCapBytes > 0 && cp.maxBlock > 0 {
		// Prefetch only into the cap's headroom above the plan's peak.
		depth = min(depth, int((eng.MemCapBytes-res.PeakMemoryBytes)/cp.maxBlock))
	}

	n := len(cp.tl.Events)
	rs := &runState{
		e: &eng, cp: cp,
		indeg:      make([]int32, n),
		ready:      make([]int32, 0, n),
		remaining:  n,
		ivRefs:     append([]int32(nil), cp.ivRefs...),
		ivBuf:      make([]*blas.Matrix, len(cp.intervals)),
		pf:         make([]pfEntry, len(cp.prefetch)),
		slots:      make(chan struct{}, max(depth, 1)),
		cancel:     make(chan struct{}),
		stageNanos: make(map[string]int64),
	}
	rs.wake.L = &rs.mu
	if eng.Pool != nil {
		rs.ivPins = make([]int32, len(cp.intervals))
		defer rs.releaseIntervalPins()
	}
	for k, req := range cp.prefetch {
		rs.pf[k].refs, rs.pf[k].unread = req.consumers, req.consumers
	}
	for _, s := range cp.succs.items {
		rs.indeg[s]++
	}
	for i, d := range rs.indeg {
		if d == 0 {
			rs.ready = append(rs.ready, int32(i))
		}
	}
	if depth > 0 && len(cp.prefetch) > 0 {
		rs.pfWG.Add(1)
		go rs.prefetcher()
	}

	// The calling goroutine is the last worker.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs.work()
		}()
	}
	rs.work()
	wg.Wait()
	rs.fail(nil)   // release the prefetcher if it is still walking
	rs.pfWG.Wait() // join prefetch reads so none outlives the run
	if rs.failErr != nil {
		return Result{}, rs.failErr
	}
	res.CPUTime = time.Duration(rs.cpuNanos.Load())
	for stage, ns := range rs.stageNanos {
		res.addStageTime(stage, time.Duration(ns))
	}
	res.PrefetchIssued = rs.pfIssued.Load()
	res.PrefetchInline = rs.pfInline.Load()
	res.SimulatedIOSec = eng.Model.Time(res.ReadBytes, res.WriteBytes, res.ReadReqs, res.WriteReqs)
	return res, nil
}

// work runs ready events until every event has completed or the run
// failed.
func (rs *runState) work() {
	var w worker
	succs := &rs.cp.succs
	rs.mu.Lock()
	for {
		for rs.next == len(rs.ready) && rs.remaining > 0 && !rs.stopped {
			rs.wake.Wait()
		}
		if rs.stopped || rs.remaining == 0 {
			rs.mu.Unlock()
			return
		}
		i := rs.ready[rs.next]
		rs.next++
		rs.mu.Unlock()
		if err := rs.execEvent(&w, int(i)); err != nil {
			rs.fail(err)
			return
		}
		rs.mu.Lock()
		woke := false
		for _, s := range succs.at(int(i)) {
			if rs.indeg[s]--; rs.indeg[s] == 0 {
				rs.ready = append(rs.ready, s)
				woke = true
			}
		}
		if rs.remaining--; rs.remaining == 0 || woke {
			rs.wake.Broadcast()
		}
	}
}

// addStageTime accumulates one kernel's wall time under its stage.
func (rs *runState) addStageTime(stage string, d time.Duration) {
	rs.stageMu.Lock()
	rs.stageNanos[stage] += int64(d)
	rs.stageMu.Unlock()
}

// fail stops the run with err (nil on normal completion).
func (rs *runState) fail(err error) {
	rs.once.Do(func() {
		rs.failErr = err
		close(rs.cancel)
		rs.mu.Lock()
		rs.stopped = true
		rs.wake.Broadcast()
		rs.mu.Unlock()
	})
}

// unpin releases n pool pins on block b.
func (rs *runState) unpin(b int32, n int) {
	array, r, c := rs.cp.coords(b)
	rs.e.Pool.Unpin(array, r, c, n)
}

// releaseEventPins releases the pool pins an event still owns.
func (rs *runState) releaseEventPins(w *worker) {
	for _, b := range w.pins {
		rs.unpin(b, 1)
	}
	w.pins = w.pins[:0]
}

// releaseIntervalPins releases pins held by intervals a failed run never
// finished.
func (rs *runState) releaseIntervalPins() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for iv, n := range rs.ivPins {
		if n > 0 {
			rs.unpin(rs.cp.intervals[iv].block, int(n))
		}
	}
}

// prefetcher walks the plan's prefetchable reads in first-use order,
// issuing each one asynchronously while window slots are available. An
// entry the executor already claimed inline is skipped.
func (rs *runState) prefetcher() {
	defer rs.pfWG.Done()
	pool := rs.e.Pool
	for k, req := range rs.cp.prefetch {
		select {
		case <-rs.cancel:
			return
		case rs.slots <- struct{}{}:
		}
		rs.pfMu.Lock()
		en := &rs.pf[k]
		if en.refs == 0 || en.issued {
			// Fully consumed or claimed inline already.
			rs.pfMu.Unlock()
			<-rs.slots
			continue
		}
		en.issued, en.slotHeld = true, true
		if pool == nil {
			en.done = make(chan struct{})
		}
		rs.pfMu.Unlock()
		rs.pfIssued.Add(1)
		rs.pfWG.Add(1)
		array, r, c := rs.cp.coords(req.block)
		go func() {
			defer rs.pfWG.Done()
			if pool != nil {
				// Pool mode: warm the shared pool instead of a private
				// cache. Consumers acquire their own pinned copies (the
				// pool coalesces with this in-flight read), so the
				// prefetcher's pin is released immediately. An error is
				// left for the consumer's own read to surface.
				if _, err := pool.Acquire(array, r, c); err == nil {
					pool.Unpin(array, r, c, 1)
				}
				return
			}
			en.blk, en.err = rs.e.Store.ReadBlock(array, r, c)
			close(en.done)
		}()
	}
}

// noteConsumed retires one prefetch-window reference (pool mode): the pool
// itself serves and caches the block, so the entry only tracks window
// occupancy. The last consumer frees the prefetcher's slot.
func (rs *runState) noteConsumed(en *pfEntry) {
	rs.pfMu.Lock()
	en.refs--
	release := en.refs == 0 && en.slotHeld
	rs.pfMu.Unlock()
	if release {
		<-rs.slots
	}
}

// readBlock serves one DoIO read of block b at event i: from the prefetch
// entry when the read is prefetchable (claiming the entry inline if the
// prefetcher has not reached it yet), from storage otherwise — in
// particular, a read scheduled after a disk write of the same block must
// bypass the entry, whose read predates the write. Shared entries hand out
// clones so a consumer installing its block into the mutable buffer pool
// cannot corrupt the others. The pinned result reports that the caller
// owns one pool pin (pool mode only). In pool mode every read — including
// post-disk-write bypass reads — goes through the pool, whose frame always
// holds the current value (disk writes are deferred write-backs there).
func (rs *runState) readBlock(i int, b int32) (*blas.Matrix, bool, error) {
	bi := &rs.cp.blocks[b]
	array, r, c := rs.cp.coords(b)
	var en *pfEntry
	if bi.pf >= 0 && int(bi.firstDiskWrite) >= i {
		en = &rs.pf[bi.pf]
	}
	if pool := rs.e.Pool; pool != nil {
		if en != nil {
			rs.noteConsumed(en)
		}
		m, err := pool.Acquire(array, r, c)
		return m, err == nil, err
	}
	if en == nil {
		m, err := rs.e.Store.ReadBlock(array, r, c)
		return m, false, err
	}
	rs.pfMu.Lock()
	claimed := !en.issued
	if claimed {
		en.issued = true
		en.done = make(chan struct{})
		rs.pfInline.Add(1)
	}
	en.refs--
	last := en.refs == 0
	rs.pfMu.Unlock()

	if claimed {
		en.blk, en.err = rs.e.Store.ReadBlock(array, r, c)
		close(en.done)
	} else {
		select {
		case <-en.done:
		case <-rs.cancel:
			return nil, false, fmt.Errorf("exec: canceled")
		}
	}
	if last && en.slotHeld {
		<-rs.slots
	}
	if en.err != nil {
		return nil, false, en.err
	}
	m := en.blk
	if rs.cp.prefetch[bi.pf].consumers > 1 {
		m = m.Clone()
	}
	rs.pfMu.Lock()
	if en.unread--; en.unread == 0 {
		en.blk = nil // every consumer has its copy; do not keep the block alive
	}
	rs.pfMu.Unlock()
	return m, false, nil
}

// execEvent runs one statement instance: acquire operands (shared buffer,
// prefetch entry, or disk), run the kernel, write back, then retain and
// release held blocks.
func (rs *runState) execEvent(w *worker, i int) error {
	cp := rs.cp
	ev := cp.tl.Events[i]
	w.local, w.in = w.local[:0], w.in[:0]
	if rs.e.Pool != nil {
		defer rs.releaseEventPins(w)
	}

	var outBlk, accum *blas.Matrix
	var write access
	for _, a := range cp.accs.at(i) {
		b := a.block()
		// held is the interval that buffered the block at an earlier event.
		held := cp.coverOf(i, b)
		if held >= 0 && i <= int(cp.intervals[held].start) {
			held = -1
		}
		if a.is(accRead) {
			var m *blas.Matrix
			switch {
			case a.is(accFromMemory):
				if held >= 0 {
					rs.mu.Lock()
					m = rs.ivBuf[held]
					rs.mu.Unlock()
				}
				if m == nil {
					m = w.lookup(b)
				}
				if m == nil {
					return rs.blockErr(i, b, "expects %s in memory but it is not buffered")
				}
			case a.is(accDoIO):
				var pinned bool
				var err error
				if m, pinned, err = rs.readBlock(i, b); err != nil {
					return err
				}
				if pinned {
					w.pins = append(w.pins, b)
				}
			}
			if w.lookup(b) == nil {
				w.local = append(w.local, localBlock{b, m})
			}
			if a.is(accAccum) {
				accum = m
			} else {
				w.in = append(w.in, m)
			}
			continue
		}
		// Write access: the output block materializes in memory.
		write = a
		if held >= 0 {
			rs.mu.Lock()
			outBlk = rs.ivBuf[held]
			rs.mu.Unlock()
			if outBlk == nil {
				return rs.blockErr(i, b, "writes held block %s but it is not buffered")
			}
		} else {
			arr := cp.tl.Prog.Arrays[cp.arrays[cp.blocks[b].array]]
			outBlk = blas.NewMatrix(arr.BlockRows, arr.BlockCols)
		}
		w.setLocal(b, outBlk)
	}

	t0 := time.Now()
	if err := RunKernel(ev.St, w.in, accum, outBlk); err != nil {
		return fmt.Errorf("exec: %s%v: %w", ev.St.Name, ev.X, err)
	}
	kd := time.Since(t0)
	rs.cpuNanos.Add(int64(kd))
	rs.addStageTime(ev.St.Name, kd)

	if write.is(accDoIO) {
		array, r, c := cp.coords(write.block())
		pinned, err := rs.e.writeThrough(array, r, c, outBlk)
		if err != nil {
			return err
		}
		if pinned {
			w.pins = append(w.pins, write.block())
		}
	}

	// Retain blocks whose hold interval extends past this event; release
	// interval references and drop fully consumed blocks. Pool pins for
	// retained blocks move to interval ownership and are released when the
	// interval's last accessor completes.
	cover := cp.cover.at(i)
	rs.mu.Lock()
	for _, iv := range cover {
		if b := cp.intervals[iv].block; i < int(cp.intervals[iv].end) {
			rs.ivBuf[iv] = w.lookup(b)
			if rs.ivPins != nil {
				rs.ivPins[iv] += w.takePins(b)
			}
		}
	}
	for _, iv := range cover {
		if rs.ivRefs[iv]--; rs.ivRefs[iv] == 0 {
			rs.ivBuf[iv] = nil
			if rs.ivPins != nil && rs.ivPins[iv] > 0 {
				rs.unpin(cp.intervals[iv].block, int(rs.ivPins[iv]))
				rs.ivPins[iv] = 0
			}
		}
	}
	rs.mu.Unlock()

	// Announce the block whose final physical write was this event. The
	// WAW and dataflow edges ordered every earlier write before it, so the
	// value observed through Pool/Store from here on is final.
	if cb := rs.e.OnBlockWritten; cb != nil && write.is(accFinal) {
		cb(cp.coords(write.block()))
	}
	return nil
}

// setLocal records (or replaces) the event's block b.
func (w *worker) setLocal(b int32, m *blas.Matrix) {
	for k := range w.local {
		if w.local[k].block == b {
			w.local[k].m = m
			return
		}
	}
	w.local = append(w.local, localBlock{b, m})
}

// takePins removes and counts the event's pins on block b.
func (w *worker) takePins(b int32) int32 {
	n := int32(0)
	kept := w.pins[:0]
	for _, p := range w.pins {
		if p == b {
			n++
		} else {
			kept = append(kept, p)
		}
	}
	w.pins = kept
	return n
}

// blockErr formats an invariant violation at event i naming block b.
func (rs *runState) blockErr(i int, b int32, format string) error {
	ev := rs.cp.tl.Events[i]
	return fmt.Errorf("exec: %s%v "+format, ev.St.Name, ev.X, rs.cp.blockKey(b))
}
