package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
)

// BlockStore is the per-array key→payload store shared by the DAF and
// LAB-tree formats.
type BlockStore interface {
	// Write stores one block payload under its linearized index.
	Write(idx uint64, data []byte) error
	// ReadInto appends the payload stored under idx to dst and returns the
	// extended slice.
	ReadInto(idx uint64, dst []byte) ([]byte, error)
	// Sync flushes buffered writes to the device.
	Sync() error
	// Close releases the store's file handle(s).
	Close() error
}

// DAF is the Directly Addressable File format: block idx lives at byte
// offset idx*blockBytes. Since every element of a dense matrix has a
// predetermined position, no index needs to be stored (§6's storage
// scheme).
type DAF struct {
	f          *os.File
	blockBytes int64
}

// OpenDAF opens or creates a DAF with fixed block payload size.
func OpenDAF(path string, blockBytes int64) (*DAF, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &DAF{f: f, blockBytes: blockBytes}, nil
}

// Write stores a block payload (must be exactly blockBytes long).
func (d *DAF) Write(idx uint64, data []byte) error {
	if int64(len(data)) != d.blockBytes {
		return fmt.Errorf("storage: DAF block size %d, want %d", len(data), d.blockBytes)
	}
	_, err := d.f.WriteAt(data, int64(idx)*d.blockBytes)
	return err
}

// Read fetches a block payload into a new slice.
func (d *DAF) Read(idx uint64) ([]byte, error) { return d.ReadInto(idx, nil) }

// ReadInto reads a block payload straight into dst's spare capacity
// (growing it if needed) and returns the extended slice.
func (d *DAF) ReadInto(idx uint64, dst []byte) ([]byte, error) {
	n := len(dst)
	out := slices.Grow(dst, int(d.blockBytes))[:n+int(d.blockBytes)]
	got, err := d.f.ReadAt(out[n:], int64(idx)*d.blockBytes)
	if err != nil && got != int(d.blockBytes) {
		return dst, fmt.Errorf("storage: DAF read block %d: %w", idx, err)
	}
	return out, nil
}

// Sync flushes the file.
func (d *DAF) Sync() error { return d.f.Sync() }

// Close closes the file.
func (d *DAF) Close() error { return d.f.Close() }

// labStore adapts LABTree to BlockStore. The tree mutates shared in-memory
// state (root, free list, scratch page) on both reads and writes, so the
// adapter serializes all access; the DAF needs no lock because pread/pwrite
// on one descriptor are atomic.
type labStore struct {
	mu sync.Mutex
	t  *LABTree
}

func (s *labStore) Write(idx uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Write(idx, data)
}

// ReadInto copies the tree's payload into dst: the LAB-tree reassembles
// a block from its page chain, so it keeps its own read path.
func (s *labStore) ReadInto(idx uint64, dst []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.t.Read(idx)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

func (s *labStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Sync()
}

func (s *labStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Close()
}

// Format selects the on-disk format.
type Format int

const (
	// FormatDAF is the directly addressable file.
	FormatDAF Format = iota
	// FormatLABTree is the linearized array B-tree.
	FormatLABTree
)

// String names the format.
func (f Format) String() string {
	if f == FormatLABTree {
		return "lab-tree"
	}
	return "daf"
}

// Linearization maps block coordinates to a key. Blocks are laid out in
// column-major order by default, matching §6's storage scheme.
type Linearization func(r, c int64, gridRows, gridCols int) uint64

// ColMajor is the paper's column-major block layout.
func ColMajor(r, c int64, gridRows, gridCols int) uint64 {
	return uint64(c)*uint64(gridRows) + uint64(r)
}

// RowMajor linearizes row-major.
func RowMajor(r, c int64, gridRows, gridCols int) uint64 {
	return uint64(r)*uint64(gridCols) + uint64(c)
}

// ZOrder interleaves coordinate bits (Morton order), an alternative
// studied for array storage locality.
func ZOrder(r, c int64, gridRows, gridCols int) uint64 {
	var z uint64
	for b := 0; b < 32; b++ {
		z |= (uint64(r) >> b & 1) << (2 * b)
		z |= (uint64(c) >> b & 1) << (2*b + 1)
	}
	return z
}

// Manager stores the blocks of a program's arrays in one store per array.
// It is safe for concurrent use: block reads and writes may be issued from
// many goroutines (the pipelined executor and its prefetcher do), and
// concurrent reads of the same block coalesce onto one disk request.
type Manager struct {
	Dir       string
	Format    Format
	Policy    SplitPolicy
	Linearize Linearization

	// ReadLatency/WriteLatency simulate a slow device by sleeping once per
	// physical block request (coalesced readers share one sleep). They let
	// pipelining experiments reproduce disk-bound behavior on fast local
	// storage; zero (the default) disables the simulation.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// SerialDevice serializes the simulated latency sleeps, modeling a
	// device that serves one request at a time (a single disk head). With
	// it, concurrent requests to one manager queue behind each other —
	// which is what makes striping across several managers (shards)
	// measurably faster for parallel reads.
	SerialDevice bool
	deviceMu     sync.Mutex

	mu     sync.RWMutex // guards stores/arrays registration
	stores map[string]BlockStore
	arrays map[string]*prog.Array

	// inflight coalesces concurrent reads of the same block: followers
	// wait for the leader's disk read instead of issuing a duplicate
	// request. Logical I/O accounting is the executor's job, so sharing a
	// physical read never distorts the paper-scale volumes.
	inflightMu sync.Mutex
	inflight   map[blockKey]*inflightRead

	// Physical I/O counters (atomic): requests that actually reached a
	// block store. Coalesced read followers and buffer-pool hits do not
	// count, which is exactly what lets callers verify cross-query sharing
	// against logical volumes.
	physReadReqs, physReadBytes   atomic.Int64
	physWriteReqs, physWriteBytes atomic.Int64
}

// Stats is a snapshot of the manager's physical I/O counters.
type Stats struct {
	ReadReqs, ReadBytes   int64
	WriteReqs, WriteBytes int64
}

// SetLatency configures the simulated per-request device latency (zero
// disables). Call it before issuing I/O; it is not synchronized with
// in-flight requests.
func (m *Manager) SetLatency(read, write time.Duration) {
	m.ReadLatency, m.WriteLatency = read, write
}

// simulate sleeps for one simulated device request; on a serial device the
// sleep holds the device, queueing concurrent requests behind it.
func (m *Manager) simulate(d time.Duration) {
	if d <= 0 {
		return
	}
	if m.SerialDevice {
		m.deviceMu.Lock()
		defer m.deviceMu.Unlock()
	}
	time.Sleep(d)
}

// Stats returns the physical I/O performed since the manager was created:
// block requests that reached the underlying store, in physical (stored)
// bytes. Compare against the executor's logical volumes to measure how much
// I/O was absorbed by read coalescing and the shared buffer pool.
func (m *Manager) Stats() Stats {
	return Stats{
		ReadReqs:   m.physReadReqs.Load(),
		ReadBytes:  m.physReadBytes.Load(),
		WriteReqs:  m.physWriteReqs.Load(),
		WriteBytes: m.physWriteBytes.Load(),
	}
}

// blockKey names one block of one array.
type blockKey struct {
	array string
	r, c  int64
}

// inflightRead is one in-progress coalesced block read. The leader fills
// data (a copy of its bytes), rows, cols and err before closing done, and
// only when followers joined.
type inflightRead struct {
	done       chan struct{}
	data       []byte
	rows, cols int
	err        error
	waiters    int
}

// NewManager creates a storage manager writing under dir.
func NewManager(dir string, format Format) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{
		Dir:       dir,
		Format:    format,
		Linearize: ColMajor,
		stores:    make(map[string]BlockStore),
		arrays:    make(map[string]*prog.Array),
		inflight:  make(map[blockKey]*inflightRead),
	}, nil
}

// Create opens the store for an array.
func (m *Manager) Create(arr *prog.Array) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.stores[arr.Name]; dup {
		return fmt.Errorf("storage: array %q already created", arr.Name)
	}
	path := filepath.Join(m.Dir, arr.Name+"."+m.Format.String())
	var (
		st  BlockStore
		err error
	)
	switch m.Format {
	case FormatLABTree:
		var t *LABTree
		t, err = OpenLABTree(path, m.Policy)
		st = &labStore{t: t}
	default:
		st, err = OpenDAF(path, arr.PhysicalBlockBytes())
	}
	if err != nil {
		return err
	}
	m.stores[arr.Name] = st
	m.arrays[arr.Name] = arr
	return nil
}

// Registered returns the array a name is currently registered under, or
// nil — how the block server decides whether an ensure-create can reuse an
// existing registration or must reopen it under a new geometry.
func (m *Manager) Registered(name string) *prog.Array {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.arrays[name]
}

// ensure opens the array's store unless it is already registered. Create
// refuses duplicates so callers catch double registration; shard repair
// needs the idempotent form to reopen stores on a recovered shard.
func (m *Manager) ensure(arr *prog.Array) error {
	m.mu.RLock()
	_, ok := m.stores[arr.Name]
	m.mu.RUnlock()
	if ok {
		return nil
	}
	return m.Create(arr)
}

// CreateAll opens stores for every array of a program.
func (m *Manager) CreateAll(p *prog.Program) error {
	for _, arr := range p.Arrays {
		if err := m.Create(arr); err != nil {
			return err
		}
	}
	return nil
}

// ErrBadBlock marks a block whose shape or byte length does not match its
// array's block geometry. The write is malformed and nothing is stored.
var ErrBadBlock = errors.New("storage: block does not match the array's geometry")

// blockBufs recycles the scratch byte buffers a decoded block passes
// through on its way to and from a store or a remote shard: encode and
// decode scratch for local I/O, request and response frames for remote
// I/O. Buffers that outgrew blockproto.MaxKeptBuffer are not kept.
var blockBufs sync.Pool

// getBuf takes an empty buffer from blockBufs.
func getBuf() *[]byte {
	if bp, ok := blockBufs.Get().(*[]byte); ok {
		return bp
	}
	return new([]byte)
}

// putBuf returns *bp to blockBufs; the caller must not touch it again.
func putBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > blockproto.MaxKeptBuffer {
		return
	}
	*bp = (*bp)[:0]
	blockBufs.Put(bp)
}

// WriteBlock serializes and stores one block through WriteBlockRaw.
func (m *Manager) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	bp := getBuf()
	*bp = blockproto.AppendBlock(*bp, blk)
	err := m.WriteBlockRaw(array, r, c, blk.Rows, blk.Cols, *bp)
	putBuf(bp)
	return err
}

// WriteBlockRaw stores one block given as its stored bytes: rows×cols
// float64 elements, little-endian, row-major (blockproto.AppendBlock's
// layout). A shape or length that does not match the array's block
// geometry fails with ErrBadBlock before anything is written. data is
// not retained.
func (m *Manager) WriteBlockRaw(array string, r, c int64, rows, cols int, data []byte) error {
	arr, st, err := m.lookup(array)
	if err != nil {
		return err
	}
	if rows != arr.BlockRows || cols != arr.BlockCols {
		return fmt.Errorf("%w: block shape %dx%d, array %s wants %dx%d",
			ErrBadBlock, rows, cols, array, arr.BlockRows, arr.BlockCols)
	}
	if want := 8 * rows * cols; len(data) != want {
		return fmt.Errorf("%w: %s[%d,%d] payload %d bytes, want %d", ErrBadBlock, array, r, c, len(data), want)
	}
	m.simulate(m.WriteLatency)
	if err := st.Write(m.Linearize(r, c, arr.GridRows, arr.GridCols), data); err != nil {
		return err
	}
	m.physWriteReqs.Add(1)
	m.physWriteBytes.Add(int64(len(data)))
	return nil
}

// ReadBlock fetches and deserializes one block through ReadBlockRaw, so it
// shares the raw path's checks, counters and read coalescing. The matrix
// is the caller's own.
func (m *Manager) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	bp := getBuf()
	data, rows, cols, err := m.ReadBlockRaw(array, r, c, *bp)
	var blk *blas.Matrix
	if err == nil {
		blk, err = blockproto.DecodeBlock(rows, cols, data)
	}
	*bp = data
	putBuf(bp)
	return blk, err
}

// ReadBlockRaw appends one block's stored bytes to dst and returns the
// extended slice together with the block's shape; the bytes are in
// WriteBlockRaw's layout. Concurrent reads of the same block coalesce: one
// physical request serves every caller. The leader reads straight into its
// own dst; followers receive a copy of the bytes, since the leader's
// caller may reuse its buffer as soon as the call returns. On error dst
// comes back unchanged.
func (m *Manager) ReadBlockRaw(array string, r, c int64, dst []byte) (data []byte, rows, cols int, err error) {
	key := blockKey{array, r, c}
	m.inflightMu.Lock()
	if call, ok := m.inflight[key]; ok {
		call.waiters++
		m.inflightMu.Unlock()
		<-call.done
		if call.err != nil {
			return dst, 0, 0, call.err
		}
		return append(dst, call.data...), call.rows, call.cols, nil
	}
	call := &inflightRead{done: make(chan struct{})}
	m.inflight[key] = call
	m.inflightMu.Unlock()

	data, rows, cols, err = m.readBlock(array, r, c, dst)
	m.inflightMu.Lock()
	delete(m.inflight, key)
	shared := call.waiters > 0
	m.inflightMu.Unlock()
	if shared {
		// No follower can join once the key is gone, so one copy serves
		// them all.
		call.rows, call.cols, call.err = rows, cols, err
		if err == nil {
			call.data = bytes.Clone(data[len(dst):])
		}
	}
	close(call.done)
	return data, rows, cols, err
}

// readBlock performs the physical read, appending to dst.
func (m *Manager) readBlock(array string, r, c int64, dst []byte) ([]byte, int, int, error) {
	arr, st, err := m.lookup(array)
	if err != nil {
		return dst, 0, 0, err
	}
	m.simulate(m.ReadLatency)
	data, err := st.ReadInto(m.Linearize(r, c, arr.GridRows, arr.GridCols), dst)
	if err != nil {
		return dst, 0, 0, fmt.Errorf("storage: read %s[%d,%d]: %w", array, r, c, err)
	}
	n := len(data) - len(dst)
	m.physReadReqs.Add(1)
	m.physReadBytes.Add(int64(n))
	if want := 8 * arr.BlockRows * arr.BlockCols; n != want {
		return dst, 0, 0, fmt.Errorf("storage: %s[%d,%d] payload %d bytes, want %d", array, r, c, n, want)
	}
	return data, arr.BlockRows, arr.BlockCols, nil
}

func (m *Manager) lookup(array string) (*prog.Array, BlockStore, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	arr, ok := m.arrays[array]
	if !ok {
		return nil, nil, fmt.Errorf("storage: unknown array %q", array)
	}
	return arr, m.stores[array], nil
}

// Drop closes and unregisters one array's store, optionally deleting its
// file. Long-running services use it to retire per-query output arrays —
// each open store holds a file descriptor, so a server that never dropped
// them would exhaust the process limit.
func (m *Manager) Drop(array string, deleteFile bool) error {
	m.mu.Lock()
	st, ok := m.stores[array]
	delete(m.stores, array)
	delete(m.arrays, array)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: unknown array %q", array)
	}
	err := st.Close()
	if deleteFile {
		if rerr := os.Remove(filepath.Join(m.Dir, array+"."+m.Format.String())); err == nil && rerr != nil {
			err = rerr
		}
	}
	return err
}

// Close closes every store.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, st := range m.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
