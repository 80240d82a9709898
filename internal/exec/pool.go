// pool.go hooks the engine into a sharing-aware block pool. When
// Engine.Pool is set, every physical block read and write goes through the
// pool instead of raw storage, so a block read by one query is a cache hit
// for the next (the cross-query extension of the paper's intra-program I/O
// sharing). The engine pins pool frames for exactly the plan's hold
// intervals: while a block sits in a plan's working set the pool may not
// evict it, and when the hold expires the frame returns to LRU order.
package exec

import (
	"riotshare/internal/blas"
)

// BlockPool is the block cache the engine acquires blocks through when
// Engine.Pool is set. Acquire returns a private copy of the block with one
// pin held on the underlying frame; Put installs a written block (the pool
// keeps its own copy, marked dirty for write-back) also with one pin held;
// Unpin releases n pins. *buffer.Pool and its aliasing sessions implement
// this interface.
type BlockPool interface {
	Acquire(array string, r, c int64) (*blas.Matrix, error)
	Put(array string, r, c int64, blk *blas.Matrix) error
	Unpin(array string, r, c int64, n int)
}

// writeThrough performs one physical block write through the pool when
// present (deferred write-back) or directly to storage. With a pool, the
// caller owns one pool pin on success.
func (e *Engine) writeThrough(array string, r, c int64, blk *blas.Matrix) (pinned bool, err error) {
	if e.Pool != nil {
		err = e.Pool.Put(array, r, c, blk)
		return err == nil, err
	}
	return false, e.Store.WriteBlock(array, r, c, blk)
}
