// Package exec physically executes lowered plans (timelines). Compile turns
// a timeline into an immutable Plan once; Engine.Exec runs it: statement
// instances execute on a pool of kernel workers in dependence order,
// performing block I/O through the storage backend under the plan's
// per-access actions and keeping shared blocks buffered exactly for their
// hold intervals (the paper's "RIOTShare injects additional code to ensure
// that all array block accesses are fulfilled either by blocks already
// buffered in memory or by I/O", §5.5). Logical I/O volumes and peak memory
// are the cost model's; the package's tests replay the paper's sequential
// interpreter as an oracle and check that its measured volumes equal that
// prediction byte for byte.
package exec

import (
	"time"

	"riotshare/internal/codegen"
	"riotshare/internal/disk"
	"riotshare/internal/storage"
)

// Result reports an execution.
type Result struct {
	// Logical I/O volumes (paper-scale accounting).
	ReadBytes, WriteBytes int64
	ReadReqs, WriteReqs   int64
	// SimulatedIOSec converts the volumes with the disk model.
	SimulatedIOSec float64
	// CPUTime is the wall time spent inside compute kernels.
	CPUTime time.Duration
	// PeakMemoryBytes is the maximum buffered logical working set.
	PeakMemoryBytes int64
	// StageTimes maps statement name → cumulative kernel wall time for
	// that pipeline stage (parallel runs sum across workers, so stage
	// times can exceed wall time). Nil until the first kernel runs.
	StageTimes map[string]time.Duration
	// PrefetchIssued counts prefetchable block reads the async
	// prefetcher issued ahead of use; PrefetchInline counts the ones a
	// consumer reached first and claimed inline (prefetch arrived too
	// late). PrefetchInline stays zero in pool mode, where the pool
	// coalesces the in-flight read.
	PrefetchIssued, PrefetchInline int64
}

// addStageTime accumulates one kernel's wall time under its stage name.
func (r *Result) addStageTime(stage string, d time.Duration) {
	if r.StageTimes == nil {
		r.StageTimes = make(map[string]time.Duration)
	}
	r.StageTimes[stage] += d
}

// Engine executes timelines against a storage backend (a single-directory
// manager or a sharded store — placement is invisible to execution).
type Engine struct {
	Store storage.Backend
	Model disk.Model
	// MemCapBytes, when nonzero, makes execution fail, before any I/O, if
	// the plan's buffered working set peaks above the cap (the optimizer
	// must have chosen a plan that fits, §4.2).
	MemCapBytes int64
	// Pool, when non-nil, routes every physical block read and write
	// through a sharing-aware buffer pool instead of raw storage, so
	// concurrent queries over one pool serve each other's blocks from
	// memory. Pool frames are pinned for the plan's hold intervals.
	// Logical I/O accounting (Result) is identical either way.
	Pool BlockPool
	// OnBlockWritten, when non-nil, is invoked once per written block
	// right after the block's final physical write completes — from that
	// moment its value is durable through Pool/Store and safe to read
	// while later pipeline stages still run (WAW and dataflow edges order
	// every earlier write before the final one). The multi-query server
	// uses it to begin streaming finished output blocks early. Calls may
	// come from worker goroutines; the callback must be cheap and safe
	// for concurrent use. Blocks whose last write never reaches disk
	// (transient, memory-only state) produce no call.
	OnBlockWritten func(array string, r, c int64)
}

// Run compiles the timeline and executes it with one worker.
func (e *Engine) Run(tl *codegen.Timeline) (Result, error) {
	return e.RunOptions(tl, Options{})
}

// RunOptions compiles the timeline and executes it under opt. Callers
// that run one timeline repeatedly should Compile it once and call Exec.
func (e *Engine) RunOptions(tl *codegen.Timeline, opt Options) (Result, error) {
	cp, err := Compile(tl)
	if err != nil {
		return Result{}, err
	}
	return e.Exec(cp, opt)
}
