package blockproto_test

import (
	"bytes"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader. It must never
// panic; a frame it accepts must read the same into a reused buffer, and
// WriteFrame must reproduce its bytes.
func FuzzReadFrame(f *testing.F) {
	f.Add(header(2))
	f.Add(header(0))
	f.Add(header(blockproto.MaxFrameBytes))
	f.Add(append(header(5), 'a', 'b', 'c'))
	f.Add(frameBytes(f, blockproto.OpWrite, new(blockproto.Enc).Str("A").I64(1).I64(2).U32(1).U32(1).Block(blas.NewMatrix(1, 1)).Bytes()))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, k, payload, err := blockproto.ReadFrame(bytes.NewReader(data))
		v2, k2, payload2, err2 := blockproto.ReadFrameInto(bytes.NewReader(data), make([]byte, 0, 3))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("ReadFrame err %v, ReadFrameInto err %v", err, err2)
		}
		if err != nil {
			return
		}
		if v != v2 || k != k2 || !bytes.Equal(payload, payload2) {
			t.Fatal("ReadFrame and ReadFrameInto disagree")
		}
		if v != blockproto.ProtoVersion {
			return // WriteFrame stamps only the current version
		}
		var w bytes.Buffer
		if err := blockproto.WriteFrame(&w, k, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), data[:w.Len()]) {
			t.Fatal("WriteFrame does not reproduce the frame it read")
		}
	})
}

// FuzzDecodeBlock decodes arbitrary bytes as an OpRead response payload
// (u32 rows, u32 cols, blob). It must never panic or allocate beyond the
// input; a block it accepts must re-encode to the same bytes.
func FuzzDecodeBlock(f *testing.F) {
	blk := blas.NewMatrix(2, 3)
	for i := range blk.Data {
		blk.Data[i] = float64(i) - 2.5
	}
	f.Add(new(blockproto.Enc).U32(2).U32(3).Block(blk).Bytes())
	f.Add(new(blockproto.Enc).U32(1).U32(uint32(len(special))).Block(specialBlock()).Bytes())
	f.Add(new(blockproto.Enc).U32(0).U32(0).Blob(nil).Bytes())
	f.Add(new(blockproto.Enc).U32(1 << 31).U32(1 << 31).Blob(nil).Bytes())
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := blockproto.NewDec(data)
		rows, cols := int(d.U32()), int(d.U32())
		raw := d.Blob()
		if d.Err() != nil {
			return
		}
		got, err := blockproto.DecodeBlock(rows, cols, raw)
		if err != nil {
			return
		}
		if got.Rows != rows || got.Cols != cols {
			t.Fatalf("decoded %dx%d, want %dx%d", got.Rows, got.Cols, rows, cols)
		}
		re := new(blockproto.Enc).U32(uint32(rows)).U32(uint32(cols)).Block(got).Bytes()
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatal("re-encoding the decoded block changed its bytes")
		}
	})
}
