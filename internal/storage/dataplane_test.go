package storage

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
)

// bitsBlock fills a rows×cols block with float64 bit patterns that a lossy
// codec would change: NaNs with payload bits, signed zeros, infinities,
// and ordinary values.
func bitsBlock(rows, cols int, seed uint64) *blas.Matrix {
	patterns := []uint64{0x7ff8000000000001, 0xfff0000000000001, 0x8000000000000000, 0, 0x7ff0000000000000, 0xfff0000000000000}
	blk := blas.NewMatrix(rows, cols)
	for i := range blk.Data {
		if i%3 == 0 {
			blk.Data[i] = math.Float64frombits(patterns[(uint64(i)+seed)%uint64(len(patterns))])
		} else {
			blk.Data[i] = float64(seed)*1000 + float64(i) + 0.25
		}
	}
	return blk
}

func sameBits(a, b *blas.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// The raw and decoded block paths are two views of one store: bytes
// written raw decode bit for bit, and decoded writes read back raw as
// exactly blockproto's encoding — on both formats.
func TestRawAndDecodedPathsAgree(t *testing.T) {
	for _, format := range []Format{FormatDAF, FormatLABTree} {
		t.Run(format.String(), func(t *testing.T) {
			m, err := NewManager(t.TempDir(), format)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			arr := &prog.Array{Name: "A", BlockRows: 4, BlockCols: 3, GridRows: 2, GridCols: 2}
			if err := m.Create(arr); err != nil {
				t.Fatal(err)
			}
			decoded, raw := bitsBlock(4, 3, 1), bitsBlock(4, 3, 2)
			if err := m.WriteBlock("A", 0, 0, decoded); err != nil {
				t.Fatal(err)
			}
			if err := m.WriteBlockRaw("A", 1, 1, 4, 3, blockproto.EncodeBlock(raw)); err != nil {
				t.Fatal(err)
			}

			prefix := []byte("hdr")
			got, rows, cols, err := m.ReadBlockRaw("A", 0, 0, prefix)
			if err != nil || rows != 4 || cols != 3 {
				t.Fatalf("ReadBlockRaw: %dx%d, %v", rows, cols, err)
			}
			if string(got[:3]) != "hdr" || !bytes.Equal(got[3:], blockproto.EncodeBlock(decoded)) {
				t.Fatal("raw read of a decoded write differs from its encoding")
			}
			back, err := m.ReadBlock("A", 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(back, raw) {
				t.Fatal("decoded read of a raw write is not bit-identical")
			}
		})
	}
}

// A raw write whose shape or length does not match the array is
// malformed: it fails with ErrBadBlock and leaves the stored block and the
// write counters untouched.
func TestRawWriteRejectsBadBlocks(t *testing.T) {
	for _, format := range []Format{FormatDAF, FormatLABTree} {
		t.Run(format.String(), func(t *testing.T) {
			m, err := NewManager(t.TempDir(), format)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := m.Create(&prog.Array{Name: "A", BlockRows: 4, BlockCols: 3, GridRows: 1, GridCols: 1}); err != nil {
				t.Fatal(err)
			}
			orig := bitsBlock(4, 3, 3)
			if err := m.WriteBlock("A", 0, 0, orig); err != nil {
				t.Fatal(err)
			}
			before := m.Stats()
			good := blockproto.EncodeBlock(bitsBlock(4, 3, 4))
			for _, tc := range []struct {
				name       string
				rows, cols int
				data       []byte
			}{
				{"short", 4, 3, good[:len(good)-8]},
				{"long", 4, 3, append(good[:len(good):len(good)], 0)},
				{"transposed", 3, 4, good},
				{"wrong shape, matching length", 2, 6, good},
			} {
				err := m.WriteBlockRaw("A", 0, 0, tc.rows, tc.cols, tc.data)
				if !errors.Is(err, ErrBadBlock) {
					t.Errorf("%s: err %v, want ErrBadBlock", tc.name, err)
				}
			}
			if err := m.WriteBlock("A", 0, 0, blas.NewMatrix(1, 1)); !errors.Is(err, ErrBadBlock) {
				t.Errorf("decoded write of the wrong shape: err %v, want ErrBadBlock", err)
			}
			if after := m.Stats(); after.WriteReqs != before.WriteReqs || after.WriteBytes != before.WriteBytes {
				t.Fatalf("rejected writes reached the store: %+v -> %+v", before, after)
			}
			got, err := m.ReadBlock("A", 0, 0)
			if err != nil || !sameBits(got, orig) {
				t.Fatalf("stored block changed after rejected writes (err %v)", err)
			}
		})
	}
}

// Raw and decoded readers of one block coalesce onto one physical read,
// and every one of them gets the full, private bytes.
func TestMixedRawDecodedReadsCoalesce(t *testing.T) {
	for _, format := range []Format{FormatDAF, FormatLABTree} {
		t.Run(format.String(), func(t *testing.T) {
			m, err := NewManager(t.TempDir(), format)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if err := m.Create(&prog.Array{Name: "A", BlockRows: 8, BlockCols: 8, GridRows: 1, GridCols: 1}); err != nil {
				t.Fatal(err)
			}
			want := bitsBlock(8, 8, 5)
			if err := m.WriteBlock("A", 0, 0, want); err != nil {
				t.Fatal(err)
			}
			wantRaw := blockproto.EncodeBlock(want)
			// The latency holds the leader's read open while the others
			// arrive and join it.
			m.SetLatency(50*time.Millisecond, 0)
			before := m.Stats().ReadReqs
			const readers = 16
			raws := make([][]byte, readers)
			var wg sync.WaitGroup
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if g%2 == 0 {
						blk, err := m.ReadBlock("A", 0, 0)
						if err != nil || !sameBits(blk, want) {
							t.Errorf("decoded reader %d: wrong block (err %v)", g, err)
						}
						return
					}
					data, _, _, err := m.ReadBlockRaw("A", 0, 0, make([]byte, 0, 8*64))
					if err != nil {
						t.Error(err)
						return
					}
					raws[g] = data
				}(g)
			}
			wg.Wait()
			if got := m.Stats().ReadReqs - before; got != 1 {
				t.Fatalf("%d concurrent reads of one block made %d physical reads, want 1", readers, got)
			}
			for g := 1; g < readers; g += 2 {
				if !bytes.Equal(raws[g], wantRaw) {
					t.Fatalf("raw reader %d got the wrong bytes", g)
				}
				for h := g + 2; h < readers; h += 2 {
					if &raws[g][0] == &raws[h][0] {
						t.Fatalf("raw readers %d and %d share a buffer", g, h)
					}
				}
			}
		})
	}
}
