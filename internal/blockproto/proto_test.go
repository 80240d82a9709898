package blockproto_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
)

// frameBytes encodes one frame with WriteFrame.
func frameBytes(t testing.TB, kind byte, payload []byte) []byte {
	t.Helper()
	var w bytes.Buffer
	if err := blockproto.WriteFrame(&w, kind, payload); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// header builds a bare frame header announcing length n.
func header(n uint32) []byte {
	h := binary.BigEndian.AppendUint32(nil, n)
	return append(h, blockproto.ProtoVersion, blockproto.OpRead)
}

func TestEncDecPrimitivesRoundTrip(t *testing.T) {
	long := strings.Repeat("x", 300)
	blob := []byte{0, 1, 2, 0xff}
	var e blockproto.Enc
	e.U8(0).U8(0xff).
		U32(0).U32(math.MaxUint32).
		I64(0).I64(-1).I64(math.MinInt64).I64(math.MaxInt64).
		Str("").Str("héllo").Str(long).
		Blob(nil).Blob(blob)
	d := blockproto.NewDec(e.Bytes())
	if got := d.U8(); got != 0 {
		t.Errorf("U8 = %d, want 0", got)
	}
	if got := d.U8(); got != 0xff {
		t.Errorf("U8 = %d, want 255", got)
	}
	if got := d.U32(); got != 0 {
		t.Errorf("U32 = %d, want 0", got)
	}
	if got := d.U32(); got != math.MaxUint32 {
		t.Errorf("U32 = %d, want max", got)
	}
	for _, want := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := d.I64(); got != want {
			t.Errorf("I64 = %d, want %d", got, want)
		}
	}
	for _, want := range []string{"", "héllo", long} {
		if got := d.Str(); got != want {
			t.Errorf("Str = %q, want %q", got, want)
		}
	}
	if got := d.Blob(); len(got) != 0 {
		t.Errorf("empty Blob = %v", got)
	}
	if got := d.Blob(); !bytes.Equal(got, blob) {
		t.Errorf("Blob = %v, want %v", got, blob)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	// The payload is fully consumed: one more read is a truncation.
	if d.U8() != 0 || d.Err() == nil {
		t.Fatal("reading past the payload should fail")
	}
}

func TestStrTruncatesAtUint16(t *testing.T) {
	s := strings.Repeat("a", math.MaxUint16+10)
	d := blockproto.NewDec(new(blockproto.Enc).Str(s).Bytes())
	if got := d.Str(); len(got) != math.MaxUint16 || d.Err() != nil {
		t.Fatalf("Str length %d err %v, want %d", len(got), d.Err(), math.MaxUint16)
	}
}

func TestEncReset(t *testing.T) {
	buf := make([]byte, 3, 64)
	var e blockproto.Enc
	out := e.Reset(buf).U32(7).Bytes()
	if len(out) != 4 || &out[0] != &buf[:1][0] {
		t.Fatalf("Reset should encode into buf's storage from offset 0: len %d", len(out))
	}
}

// special holds the float64 bit patterns a codec is most likely to lose:
// NaNs with payload bits (quiet, signaling, negative), signed zeros,
// infinities, and the extremes of the finite range.
var special = []uint64{
	0x7ff8000000000000, // quiet NaN
	0x7ff8000000000001, // quiet NaN with payload
	0x7ff0000000000001, // signaling NaN
	0xfff80000deadbeef, // negative NaN with payload
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x0000000000000001, // smallest subnormal
	0x7fefffffffffffff, // MaxFloat64
	0x3ff0000000000000, // 1
}

func specialBlock() *blas.Matrix {
	blk := blas.NewMatrix(1, len(special))
	for i, b := range special {
		blk.Data[i] = math.Float64frombits(b)
	}
	return blk
}

func TestBlockCodecBitIdentity(t *testing.T) {
	blk := specialBlock()
	raw := blockproto.EncodeBlock(blk)
	for i, b := range special {
		if got := binary.LittleEndian.Uint64(raw[8*i:]); got != b {
			t.Fatalf("element %d encoded as %#x, want little-endian %#x", i, got, b)
		}
	}
	if app := blockproto.AppendBlock([]byte("pre"), blk); !bytes.Equal(app[3:], raw) || string(app[:3]) != "pre" {
		t.Fatal("AppendBlock must append EncodeBlock's bytes behind dst")
	}
	d := blockproto.NewDec(new(blockproto.Enc).Block(blk).Bytes())
	if blob := d.Blob(); !bytes.Equal(blob, raw) || d.Err() != nil {
		t.Fatal("Enc.Block must be a blob of EncodeBlock's bytes")
	}

	dec, err := blockproto.DecodeBlock(blk.Rows, blk.Cols, raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range special {
		if got := math.Float64bits(dec.Data[i]); got != b {
			t.Errorf("DecodeBlock element %d = %#x, want %#x", i, got, b)
		}
	}
}

func TestDecodeBlockRejectsBadShapes(t *testing.T) {
	raw := blockproto.EncodeBlock(blas.NewMatrix(2, 2))
	for _, tc := range []struct {
		rows, cols int
		payload    []byte
	}{
		{2, 2, raw[:31]},
		{2, 2, append(raw, 0)},
		{2, 3, raw},
		{-2, -2, raw},
		{math.MaxUint32, math.MaxUint32, raw}, // the product must not overflow into a match
		{1 << 31, 1 << 33, raw},
	} {
		if _, err := blockproto.DecodeBlock(tc.rows, tc.cols, tc.payload); err == nil {
			t.Errorf("DecodeBlock(%d, %d, %d bytes) should fail", tc.rows, tc.cols, len(tc.payload))
		}
	}
}

func TestDecTruncatedPayloads(t *testing.T) {
	full := new(blockproto.Enc).U8(1).U32(2).I64(3).Str("name").Blob([]byte("blob")).Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := blockproto.NewDec(full[:cut])
		d.U8()
		d.U32()
		d.I64()
		d.Str()
		d.Blob()
		if d.Err() == nil {
			t.Fatalf("payload cut at %d of %d decoded without error", cut, len(full))
		}
	}
	// The first error sticks and every later read returns zero values.
	d := blockproto.NewDec([]byte{0, 0})
	if d.U32() != 0 || d.Err() == nil {
		t.Fatal("truncated U32 should fail")
	}
	if d.U8() != 0 || d.Str() != "" || d.Blob() != nil || d.I64() != 0 {
		t.Fatal("reads after an error must return zero values")
	}
	// A blob length beyond the frame bound is rejected before any slicing.
	huge := binary.BigEndian.AppendUint32(nil, blockproto.MaxFrameBytes+1)
	d = blockproto.NewDec(append(huge, 1, 2, 3))
	if d.Blob() != nil || d.Err() == nil {
		t.Fatal("blob longer than MaxFrameBytes should fail")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{7}, 100000)} {
		raw := frameBytes(t, blockproto.StatusErr, payload)
		if len(raw) != 6+len(payload) {
			t.Fatalf("frame of %d payload bytes is %d bytes", len(payload), len(raw))
		}
		v, k, got, err := blockproto.ReadFrame(bytes.NewReader(raw))
		if err != nil || v != blockproto.ProtoVersion || k != blockproto.StatusErr || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %d bytes: v=%d k=%d len=%d err=%v", len(payload), v, k, len(got), err)
		}
	}
	if err := blockproto.WriteFrame(io.Discard, 0, make([]byte, blockproto.MaxFrameBytes-1)); err == nil {
		t.Fatal("a payload over the frame limit must not be written")
	}
}

func TestReadFrameLengthBounds(t *testing.T) {
	for _, n := range []uint32{0, 1, blockproto.MaxFrameBytes + 1, math.MaxUint32} {
		_, _, _, err := blockproto.ReadFrame(bytes.NewReader(header(n)))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("length %d: err %v, want out of range", n, err)
		}
	}
	if _, _, p, err := blockproto.ReadFrame(bytes.NewReader(header(2))); err != nil || len(p) != 0 {
		t.Errorf("length 2 (empty payload): %v, %d bytes", err, len(p))
	}
}

func TestReadFrameTruncated(t *testing.T) {
	raw := frameBytes(t, blockproto.OpWrite, []byte("payload"))
	if _, _, _, err := blockproto.ReadFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("no bytes: err %v, want io.EOF", err)
	}
	for cut := 1; cut < len(raw); cut++ {
		_, _, _, err := blockproto.ReadFrame(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("frame cut at %d: err %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 1000)
	raw := frameBytes(t, blockproto.OpWrite, payload)

	buf := make([]byte, 0, 4096)
	_, _, got, err := blockproto.ReadFrameInto(bytes.NewReader(raw), buf)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFrameInto: %v", err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("a big enough buffer must be reused")
	}
	rd := bytes.NewReader(raw)
	if allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(raw)
		if _, _, _, err := blockproto.ReadFrameInto(rd, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("reading into a reused buffer allocated %.1f times per frame", allocs)
	}

	small := make([]byte, 0, 16)
	_, _, got, err = blockproto.ReadFrameInto(bytes.NewReader(raw), small)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFrameInto with a small buffer: %v", err)
	}
	if &got[0] == &small[:1][0] {
		t.Fatal("a too-small buffer cannot hold the payload; a new one must be allocated")
	}
}

// A peer that sends a header claiming the maximum frame and then goes away
// must not cost the reader MaxFrameBytes: the payload buffer grows only as
// bytes arrive.
func TestReadFrameHostileLengthAllocatesLittle(t *testing.T) {
	rd := bytes.NewReader(header(blockproto.MaxFrameBytes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := blockproto.ReadFrame(rd)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("a 6-byte header allocated %d bytes, want < 2 MiB", got)
	}
}

// A frame larger than the growth step still arrives whole.
func TestReadFrameGrowsInSteps(t *testing.T) {
	payload := make([]byte, 5<<20+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	raw := frameBytes(t, blockproto.StatusOK, payload)
	_, _, got, err := blockproto.ReadFrameInto(bytes.NewReader(raw), make([]byte, 0, 100))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large frame: %v", err)
	}
}
