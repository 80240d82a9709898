// Package blockproto is the wire protocol spoken between the riotblockd
// network block server and the remote-shard client in internal/storage: a
// small length-prefixed binary protocol carrying block I/O (CREATE, READ,
// WRITE, DROP), shard administration (STATS, MANIFEST get/put/del, STAT,
// WIPE, LATENCY), and liveness (PING) over one TCP connection.
//
// Framing. Every request and every response is one frame:
//
//	uint32  length   (big endian; bytes after this field)
//	uint8   version  (ProtoVersion)
//	uint8   opcode   (requests) / status (responses)
//	...     payload  (opcode/status specific)
//
// Responses carry no request identifier: a connection is a strict FIFO
// pipe, the server answers requests in arrival order, and a client that
// pipelines must match responses to requests by order. Integers inside
// payloads are big-endian fixed width; strings and byte blobs are
// uint16/uint32 length-prefixed. Block payloads are float64 elements in
// little-endian IEEE-754 bit order, row-major — exactly the bytes the DAF
// and LAB-tree stores persist.
//
// The full specification, including versioning rules, lives in
// docs/remote-protocol.md; keep the two in sync.
package blockproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"

	"riotshare/internal/blas"
)

// ProtoVersion is the protocol version stamped into every frame. A peer
// receiving a frame with a different version must reject it with
// StatusBadVersion (servers) or fail the connection (clients): there is no
// negotiation, deploys roll the fleet instead.
const ProtoVersion = 1

// MaxFrameBytes bounds a frame's payload so a corrupt or hostile length
// prefix cannot allocate unbounded memory. 64 MiB comfortably exceeds any
// real block (the paper's largest physical blocks are tens of MB).
const MaxFrameBytes = 64 << 20

// Opcodes: the request kinds a block server answers.
const (
	// OpPing is a liveness probe; the response carries no payload.
	OpPing byte = 1
	// OpCreate registers an array's store: name, block/grid shape,
	// logical block bytes, and an "ensure" flag making it idempotent.
	OpCreate byte = 2
	// OpRead fetches one block: name, block row, block col → shape +
	// payload.
	OpRead byte = 3
	// OpWrite stores one block: name, block row, block col, shape,
	// payload.
	OpWrite byte = 4
	// OpDrop closes and unregisters an array's store, optionally deleting
	// its file.
	OpDrop byte = 5
	// OpStats snapshots the server's physical I/O counters.
	OpStats byte = 6
	// OpManifest reads, writes, or removes the shard root's MANIFEST.json
	// (sub-op byte: ManifestGet/Put/Del).
	OpManifest byte = 7
	// OpStat reports whether an array's store file exists on disk.
	OpStat byte = 8
	// OpWipe closes an array's store if open and deletes its file —
	// repair's "start from empty" primitive. Wiping an absent store is not
	// an error.
	OpWipe byte = 9
	// OpLatency sets the server's simulated per-request device latency
	// (read, write nanoseconds; zero disables), mirroring
	// storage.Backend.SetLatency for experiments.
	OpLatency byte = 10
)

// Manifest sub-operations (first payload byte of OpManifest).
const (
	// ManifestGet returns the manifest bytes, or StatusNotFound.
	ManifestGet byte = 0
	// ManifestPut atomically replaces the manifest.
	ManifestPut byte = 1
	// ManifestDel removes the manifest; removing an absent one succeeds.
	ManifestDel byte = 2
)

// Statuses: the first meaningful byte of every response.
const (
	// StatusOK means the request succeeded; the payload is op-specific.
	StatusOK byte = 0
	// StatusErr is a generic server-side failure; the payload is the error
	// string.
	StatusErr byte = 1
	// StatusUnknownArray means the named array has no registered store.
	StatusUnknownArray byte = 2
	// StatusExists means OpCreate (without ensure) hit an already-created
	// array.
	StatusExists byte = 3
	// StatusBadRequest means the frame decoded but the request is
	// malformed (bad opcode, truncated payload, shape mismatch).
	StatusBadRequest byte = 4
	// StatusNotFound means the requested object (manifest, store file)
	// does not exist.
	StatusNotFound byte = 5
	// StatusBadVersion means the request frame's version byte is not
	// ProtoVersion.
	StatusBadVersion byte = 6
)

// WriteFrame emits one frame (version, kind, payload) to w. kind is an
// opcode on the request path and a status on the response path. Header and
// payload leave in one write — a single writev on a network connection.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	if len(payload)+2 > MaxFrameBytes {
		return fmt.Errorf("blockproto: frame payload %d bytes exceeds limit %d", len(payload), MaxFrameBytes)
	}
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(payload)+2))
	hdr[4] = ProtoVersion
	hdr[5] = kind
	if len(payload) == 0 {
		_, err := w.Write(hdr[:])
		return err
	}
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// frameGrowStep is how far ahead of the bytes received a frame payload
// buffer may grow: ReadFrameInto allocates at most this much before the
// first payload byte arrives, then at most doubles what has arrived.
const frameGrowStep = 1 << 20

// MaxKeptBuffer bounds the capacity of a frame buffer worth keeping for
// reuse. Connections and buffer pools drop a buffer that an oversized frame
// grew beyond it, so one large request cannot pin its memory for the life
// of a connection.
const MaxKeptBuffer = 1 << 20

// ReadFrame reads one frame from r, returning its version, kind (opcode or
// status), and payload. It validates only the length bound — version
// checking is the caller's, so servers can answer a bad version with
// StatusBadVersion instead of hanging up.
func ReadFrame(r io.Reader) (version, kind byte, payload []byte, err error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto is ReadFrame reading the payload into buf when its capacity
// suffices, so a caller that reuses buf reads frame after frame without
// allocating. The returned payload aliases buf (or a larger replacement);
// it is valid until the caller reuses the buffer. A larger frame grows the
// buffer only as its bytes arrive, so a length prefix alone cannot make the
// reader allocate MaxFrameBytes.
func ReadFrameInto(r io.Reader, buf []byte) (version, kind byte, payload []byte, err error) {
	// The header lands in buf too (a local array would escape through r),
	// and the payload then overwrites it.
	hdr := slices.Grow(buf[:0], 6)[:6]
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	if n < 2 || n > MaxFrameBytes {
		return 0, 0, nil, fmt.Errorf("blockproto: frame length %d out of range [2, %d]", n, MaxFrameBytes)
	}
	version, kind = hdr[4], hdr[5]
	if payload, err = readPayload(r, hdr[:0], int(n-2)); err != nil {
		return 0, 0, nil, noEOF(err)
	}
	return version, kind, payload, nil
}

// readPayload reads exactly n bytes into buf, growing it in steps of at
// most max(frameGrowStep, bytes received so far).
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), frameGrowStep)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// noEOF reports a frame cut short after its header as unexpected EOF: only
// a clean end between frames is io.EOF.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Enc builds a frame payload: fixed-width big-endian integers,
// length-prefixed strings and blobs.
type Enc struct{ buf []byte }

// Reset starts a new payload in buf's storage (truncated to length 0), so a
// caller encoding frame after frame can reuse one buffer.
func (e *Enc) Reset(buf []byte) *Enc { e.buf = buf[:0]; return e }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Enc) U8(v byte) *Enc { e.buf = append(e.buf, v); return e }

// U32 appends a big-endian uint32.
func (e *Enc) U32(v uint32) *Enc {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	return e
}

// I64 appends a big-endian int64 (two's complement).
func (e *Enc) I64(v int64) *Enc {
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(v))
	return e
}

// Str appends a uint16-length-prefixed string (array names, error text).
func (e *Enc) Str(s string) *Enc {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a uint32-length-prefixed byte blob (block payloads,
// manifest bytes).
func (e *Enc) Blob(b []byte) *Enc {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Dec decodes a frame payload written by Enc. The first decode error
// sticks: every later call returns zero values, and Err reports it.
type Dec struct {
	buf []byte
	err error
}

// NewDec wraps a payload for decoding.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the first decode error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = fmt.Errorf("blockproto: truncated payload (want %d bytes, have %d)", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// I64 reads a big-endian int64.
func (d *Dec) I64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

// Str reads a uint16-length-prefixed string.
func (d *Dec) Str() string {
	n := d.take(2)
	if n == nil {
		return ""
	}
	return string(d.take(int(binary.BigEndian.Uint16(n))))
}

// Blob reads a uint32-length-prefixed byte blob.
func (d *Dec) Blob() []byte {
	n := d.take(4)
	if n == nil {
		return nil
	}
	ln := binary.BigEndian.Uint32(n)
	if ln > MaxFrameBytes {
		d.err = fmt.Errorf("blockproto: blob length %d exceeds frame limit", ln)
		return nil
	}
	return d.take(int(ln))
}

// Block appends blk as a blob: the uint32 length prefix, then AppendBlock's
// bytes — straight into the payload, with no intermediate slice.
func (e *Enc) Block(blk *blas.Matrix) *Enc {
	e.buf = AppendBlock(binary.BigEndian.AppendUint32(e.buf, uint32(8*len(blk.Data))), blk)
	return e
}

// AppendBlock appends blk's elements to dst as little-endian IEEE-754
// float64 bits, row-major — the byte layout the on-disk stores use, so the
// server passes block payloads straight through.
func AppendBlock(dst []byte, blk *blas.Matrix) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(blk.Data))[:n+8*len(blk.Data)]
	for i, v := range blk.Data {
		binary.LittleEndian.PutUint64(dst[n+i*8:], math.Float64bits(v))
	}
	return dst
}

// EncodeBlock serializes a block matrix in AppendBlock's layout.
func EncodeBlock(blk *blas.Matrix) []byte { return AppendBlock(nil, blk) }

// BlockHeaderBytes is the size of the shape-and-length words in front of
// the block bytes of an OpRead response: u32 rows, u32 cols, u32 blob
// length.
const BlockHeaderBytes = 12

// PutBlockHeader fills the first BlockHeaderBytes of an OpRead response
// payload — rows, cols, and the length of the block bytes behind the
// header — so a server can read a block straight in behind a reserved
// header and stamp its shape afterwards.
func PutBlockHeader(payload []byte, rows, cols int) {
	binary.BigEndian.PutUint32(payload[0:], uint32(rows))
	binary.BigEndian.PutUint32(payload[4:], uint32(cols))
	binary.BigEndian.PutUint32(payload[8:], uint32(len(payload)-BlockHeaderBytes))
}

// DecodeBlock deserializes an EncodeBlock payload into a rows×cols matrix.
func DecodeBlock(rows, cols int, payload []byte) (*blas.Matrix, error) {
	// Bound each side before multiplying: a hostile shape must neither
	// overflow the product nor allocate a matrix the payload cannot fill.
	const maxSide = MaxFrameBytes / 8
	if rows < 0 || cols < 0 || rows > maxSide || cols > maxSide || 8*rows*cols != len(payload) {
		return nil, fmt.Errorf("blockproto: block payload %d bytes does not fit a %dx%d block", len(payload), rows, cols)
	}
	blk := blas.NewMatrix(rows, cols)
	for i := range blk.Data {
		blk.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return blk, nil
}
