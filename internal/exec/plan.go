// plan.go compiles a timeline once into the immutable schedule the engine
// executes. Everything here depends only on the plan, never on a run: the
// per-event block accesses, the event dependence DAG, the merged hold
// intervals and which events they cover, the prefetch walk, which write
// is each block's final one, and the logical Result the cost model
// predicts. A
// compiled Plan is safe to execute from many goroutines at once; each
// Exec copies only the small per-run counters (in-degrees, interval
// reference counts, prefetch entries).
//
// Blocks are interned to dense int32 ids at compile time, so the compiled
// form is a handful of flat slices indexed by event or block id and holds
// no formatted block-key strings.
package exec

import (
	"fmt"
	"math"
	"slices"

	"riotshare/internal/codegen"
	"riotshare/internal/cost"
	"riotshare/internal/disk"
	"riotshare/internal/prog"
)

// Plan is a timeline compiled for execution (see Compile).
type Plan struct {
	tl     *codegen.Timeline
	arrays []string // array names, indexed by blockInfo.array
	blocks []blockInfo
	// accs lists each event's active block accesses in statement access
	// order, which kernels depend on.
	accs csr[access]
	// succs is the dependence DAG (each run derives in-degrees from it).
	succs csr[int32]
	// cover lists, per event, the hold intervals covering the blocks the
	// event accesses (start <= i <= end). Event i is an accessor of each,
	// so the same list drives retention and release.
	cover     csr[int32]
	intervals []interval
	ivRefs    []int32 // accessors per interval, the per-run refcount template
	// prefetch is the ordered walk of coalesced prefetchable reads.
	prefetch []pfReq
	maxBlock int64 // largest prefetchable block, for the window's byte budget
	// logical is the cost model's accounting of the plan.
	logical Result
}

// noDiskWrite marks a block no event writes to disk.
const noDiskWrite = math.MaxInt32

// blockInfo is one interned block.
type blockInfo struct {
	array, r, c int32
	// firstDiskWrite is the earliest event writing the block to disk; DoIO
	// reads at later events must bypass the prefetch walk, whose single
	// early read predates the write.
	firstDiskWrite int32
	// pf indexes the block's entry in Plan.prefetch (-1 when none).
	pf int32
}

// access is one active block access of one event: the block id above
// accFlagBits flag bits.
type access uint32

const (
	accRead       access = 1 << iota // a read; otherwise the statement's write
	accAccum                         // the "+=" self-operand read of the written array
	accDoIO                          // served by block I/O (neither flag: an elided write)
	accFromMemory                    // served from the buffered block
	accFinal                         // the block's last write, persisted: Engine.OnBlockWritten announces it
	accFlagBits   = iota
	maxBlocks     = 1 << (32 - accFlagBits)
)

func (a access) block() int32     { return int32(a >> accFlagBits) }
func (a access) is(f access) bool { return a&f != 0 }

// interval is one merged hold interval: the block enters the buffer when
// event start completes and leaves it after event end completes.
type interval struct {
	block, start, end int32
}

// pfReq is one prefetch-walk entry: a block and the number of DoIO reads
// its single early read serves.
type pfReq struct {
	block, consumers int32
}

// csr is a compressed per-event list: event i owns items[start[i]:start[i+1]].
type csr[T any] struct {
	start []int32
	items []T
}

func (c *csr[T]) at(i int) []T { return c.items[c.start[i]:c.start[i+1]] }

// flatten packs per-event lists into one csr.
func flatten[T any](lists [][]T) csr[T] {
	c := csr[T]{start: make([]int32, len(lists)+1)}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	c.items = make([]T, 0, total)
	for i, l := range lists {
		c.items = append(c.items, l...)
		c.start[i+1] = int32(len(c.items))
	}
	return c
}

// Compile builds the execution plan of a timeline. It fails, before any
// I/O can happen, on a timeline no engine could run: a FromMemory read of
// a block that is not buffered at that event, or a hold interval whose
// start event does not access its block. The memory cap is an engine
// setting; Exec checks it against the plan's peak.
func Compile(tl *codegen.Timeline) (*Plan, error) {
	n := len(tl.Events)
	cp := &Plan{tl: tl}
	ids := make(map[string]int32) // block key -> block id
	arrayIDs := make(map[string]int32)
	intern := func(key, array string, r, c int64) int32 {
		if id, ok := ids[key]; ok {
			return id
		}
		a, ok := arrayIDs[array]
		if !ok {
			a = int32(len(cp.arrays))
			arrayIDs[array] = a
			cp.arrays = append(cp.arrays, array)
		}
		id := int32(len(cp.blocks))
		ids[key] = id
		cp.blocks = append(cp.blocks, blockInfo{array: a, r: int32(r), c: int32(c), firstDiskWrite: noDiskWrite, pf: -1})
		return id
	}

	// Per-event accesses.
	accs := make([][]access, n)
	for i, set := range tl.AccessSets() {
		for _, ba := range set {
			a := access(intern(ba.Key, ba.Array, ba.R, ba.C)) << accFlagBits
			switch ba.Action {
			case codegen.DoIO:
				a |= accDoIO
			case codegen.FromMemory:
				a |= accFromMemory
			}
			if ba.Type == prog.Read {
				a |= accRead
			}
			if isAccumulatorRead(tl.Events[i].St, ba.Acc) {
				a |= accAccum
			}
			accs[i] = append(accs[i], a)
		}
	}
	if len(cp.blocks) > maxBlocks {
		return nil, fmt.Errorf("exec: plan touches %d blocks, more than %d", len(cp.blocks), maxBlocks)
	}
	cp.accs = flatten(accs)

	succs := make([][]int32, n)
	seen := make(map[int64]struct{})
	// addEdge orders event from before event to; every caller passes
	// from <= to, since all three edge families point forward in time.
	addEdge := func(from, to int) {
		if from == to {
			return // intra-event ordering is program order
		}
		id := int64(from)<<32 | int64(to)
		if _, dup := seen[id]; dup {
			return
		}
		seen[id] = struct{}{}
		succs[from] = append(succs[from], int32(to))
	}
	// touches reports whether event i accesses block b, and whether it
	// writes it.
	touches := func(i int, b int32) (touched, writes bool) {
		for _, a := range cp.accs.at(i) {
			if a.block() == b {
				touched = true
				writes = writes || !a.is(accRead)
			}
		}
		return touched, writes
	}

	// Memory dataflow within and between hold intervals:
	//   - the interval's start event produces the buffered block; readers
	//     depend on the latest producer, writers on the latest producer
	//     plus every reader since (in-place accumulation never races a
	//     consumer);
	//   - buffer-slot reuse: the next interval of the same block starts
	//     only after every accessor of the previous one, so release
	//     precedes re-insertion.
	cover := make([][]int32, n)
	var accessors, prevAccessors, readers []int
	for _, hi := range tl.HoldIntervals() {
		iv := interval{block: intern(hi.Key, hi.Array, hi.R, hi.C), start: int32(hi.Start), end: int32(hi.End)}
		ivIdx := int32(len(cp.intervals))
		cp.intervals = append(cp.intervals, iv)
		accessors = accessors[:0]
		producer := int(iv.start)
		readers = readers[:0]
		for i := int(iv.start); i <= int(iv.end); i++ {
			touched, writes := touches(i, iv.block)
			if !touched {
				continue
			}
			accessors = append(accessors, i)
			cover[i] = append(cover[i], ivIdx)
			if i == int(iv.start) {
				continue
			}
			addEdge(producer, i)
			if writes {
				for _, r := range readers {
					addEdge(r, i)
				}
				producer, readers = i, readers[:0]
			} else {
				readers = append(readers, i)
			}
		}
		if len(accessors) == 0 || accessors[0] != int(iv.start) {
			return nil, fmt.Errorf("exec: hold interval %s[%d..%d] start event does not access the block",
				cp.blockKey(iv.block), iv.start, iv.end)
		}
		cp.ivRefs = append(cp.ivRefs, int32(len(accessors)))
		if ivIdx > 0 && cp.intervals[ivIdx-1].block == iv.block {
			for _, a := range prevAccessors {
				addEdge(a, int(iv.start))
			}
		}
		prevAccessors = append(prevAccessors[:0], accessors...)
	}
	cp.cover = flatten(cover)

	// Disk state per block over DoIO accesses: write → later reads (RAW),
	// reads → next write (WAR), write → write (WAW).
	lastWriter := make([]int32, len(cp.blocks))
	for b := range lastWriter {
		lastWriter[b] = -1
	}
	readersSince := make([][]int32, len(cp.blocks))
	for i := 0; i < n; i++ {
		for _, a := range cp.accs.at(i) {
			if !a.is(accDoIO) {
				continue
			}
			b := a.block()
			if w := lastWriter[b]; w >= 0 {
				addEdge(int(w), i)
			}
			if a.is(accRead) {
				readersSince[b] = append(readersSince[b], int32(i))
				continue
			}
			for _, r := range readersSince[b] {
				addEdge(int(r), i)
			}
			readersSince[b] = readersSince[b][:0]
			lastWriter[b] = int32(i)
			if bi := &cp.blocks[b]; bi.firstDiskWrite == noDiskWrite {
				bi.firstDiskWrite = int32(i)
			}
		}
	}
	cp.succs = flatten(succs)

	// Prefetch walk: a DoIO read is prefetchable when no earlier event
	// writes the block to disk — then all prefetchable reads of one block
	// see identical disk state and share a single early read. Reads past a
	// disk write are left to the executor, whose RAW edge orders them.
	for i := 0; i < n; i++ {
		for _, a := range cp.accs.at(i) {
			b := &cp.blocks[a.block()]
			if !a.is(accRead) || !a.is(accDoIO) || int(b.firstDiskWrite) < i {
				continue
			}
			if b.pf < 0 {
				b.pf = int32(len(cp.prefetch))
				cp.prefetch = append(cp.prefetch, pfReq{block: a.block()})
				if bytes := tl.Prog.Arrays[cp.arrays[b.array]].LogicalBlockBytes; bytes > cp.maxBlock {
					cp.maxBlock = bytes
				}
			}
			cp.prefetch[b.pf].consumers++
		}
	}

	// Final writes: the last write of each block, when it reaches disk
	// (through a pool, a deferred dirty install). After that event the
	// block's value is final and readable.
	lastWrite := make([]int32, len(cp.blocks))
	for b := range lastWrite {
		lastWrite[b] = -1
	}
	for k, a := range cp.accs.items {
		if !a.is(accRead) {
			lastWrite[a.block()] = int32(k)
		}
	}
	for _, k := range lastWrite {
		if k >= 0 && cp.accs.items[k].is(accDoIO) {
			cp.accs.items[k] |= accFinal
		}
	}

	cp.blocks = slices.Clip(cp.blocks)
	cp.intervals, cp.ivRefs = slices.Clip(cp.intervals), slices.Clip(cp.ivRefs)
	cp.prefetch = slices.Clip(cp.prefetch)

	if err := cp.checkFromMemory(); err != nil {
		return nil, err
	}

	// Only the volumes and the peak are kept: Exec prices the volumes with
	// the engine's own disk model.
	c := cost.Evaluate(tl, disk.Model{})
	cp.logical = Result{
		ReadBytes: c.ReadBytes, WriteBytes: c.WriteBytes,
		ReadReqs: c.ReadReqs, WriteReqs: c.WriteReqs,
		PeakMemoryBytes: c.PeakMemoryBytes,
	}
	return cp, nil
}

// Timeline returns the timeline the plan was compiled from.
func (cp *Plan) Timeline() *codegen.Timeline { return cp.tl }

// coords returns block b's array name and block coordinates.
func (cp *Plan) coords(b int32) (array string, r, c int64) {
	bi := &cp.blocks[b]
	return cp.arrays[bi.array], int64(bi.r), int64(bi.c)
}

// blockKey formats block b for error messages.
func (cp *Plan) blockKey(b int32) string {
	return codegen.BlockKey(cp.coords(b))
}

// coverOf returns the interval covering block b at event i, or -1.
func (cp *Plan) coverOf(i int, b int32) int32 {
	for _, iv := range cp.cover.at(i) {
		if cp.intervals[iv].block == b {
			return iv
		}
	}
	return -1
}

// checkFromMemory verifies that every FromMemory read finds its block
// buffered: held by an interval that began at an earlier event, or
// materialized by an earlier access of the same event.
func (cp *Plan) checkFromMemory() error {
	for i := range cp.tl.Events {
		accs := cp.accs.at(i)
		for k, a := range accs {
			if !a.is(accRead) || !a.is(accFromMemory) {
				continue
			}
			if iv := cp.coverOf(i, a.block()); iv >= 0 && i > int(cp.intervals[iv].start) {
				continue
			}
			local := false
			for _, prev := range accs[:k] {
				local = local || prev.block() == a.block()
			}
			if !local {
				ev := cp.tl.Events[i]
				return fmt.Errorf("exec: %s%v expects %s in memory but it is not buffered",
					ev.St.Name, ev.X, cp.blockKey(a.block()))
			}
		}
	}
	return nil
}

// isAccumulatorRead reports whether access ai is a read of the same array
// the statement writes (the "+=" self-operand).
func isAccumulatorRead(st *prog.Statement, ai int) bool {
	ac := &st.Accesses[ai]
	if ac.Type != prog.Read {
		return false
	}
	w := st.WriteAccess()
	return w != nil && w.Array == ac.Array
}
