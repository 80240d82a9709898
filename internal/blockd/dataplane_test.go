// dataplane_test.go pins the copy-lean block data plane: block bytes pass
// through riotblockd unchanged in both directions, malformed raw writes are
// rejected before they reach the store, pooled wire buffers are never
// shared between in-flight requests, and a remote read stays within its
// allocation budget.
package blockd_test

import (
	"bytes"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/blockd"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// nanBlock fills a block with bit patterns a lossy codec would change.
func nanBlock(rows, cols int, seed uint64) *blas.Matrix {
	patterns := []uint64{0x7ff8000000000001, 0xfff0000000000001, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000}
	blk := blas.NewMatrix(rows, cols)
	for i := range blk.Data {
		if i%2 == 0 {
			blk.Data[i] = math.Float64frombits(patterns[(uint64(i)+seed)%uint64(len(patterns))])
		} else {
			blk.Data[i] = float64(seed) + float64(i)/8
		}
	}
	return blk
}

func bitIdentical(a, b *blas.Matrix) bool {
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

// rawConn speaks hand-built frames to a server.
type rawConn struct {
	t *testing.T
	c net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c}
}

// call sends one request frame and returns the response status and payload.
func (rc *rawConn) call(op byte, payload []byte) (byte, []byte) {
	rc.t.Helper()
	if err := blockproto.WriteFrame(rc.c, op, payload); err != nil {
		rc.t.Fatal(err)
	}
	_, status, resp, err := blockproto.ReadFrame(rc.c)
	if err != nil {
		rc.t.Fatal(err)
	}
	return status, resp
}

func rawWrite(name string, r, c int64, rows, cols uint32, data []byte) []byte {
	return new(blockproto.Enc).Str(name).I64(r).I64(c).U32(rows).U32(cols).Blob(data).Bytes()
}

// Over the wire, the raw and decoded paths agree bit for bit on both
// formats: a decoded client write reads back raw as exactly the client's
// encoding, and raw bytes written by hand decode to the same bits.
func TestRemoteRawAndDecodedPathsAgree(t *testing.T) {
	for _, format := range []storage.Format{storage.FormatDAF, storage.FormatLABTree} {
		t.Run(format.String(), func(t *testing.T) {
			srv, err := blockd.New(t.TempDir(), blockd.Options{Format: format})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
			defer rs.Close()
			arr := &prog.Array{Name: "A", BlockRows: 4, BlockCols: 3, GridRows: 2, GridCols: 1}
			if err := rs.Create(arr); err != nil {
				t.Fatal(err)
			}

			decoded := nanBlock(4, 3, 1)
			if err := rs.WriteBlock("A", 0, 0, decoded); err != nil {
				t.Fatal(err)
			}
			rc := dialRaw(t, srv.Addr())
			status, resp := rc.call(blockproto.OpRead, new(blockproto.Enc).Str("A").I64(0).I64(0).Bytes())
			if status != blockproto.StatusOK {
				t.Fatalf("raw read: status %d %q", status, resp)
			}
			d := blockproto.NewDec(resp)
			rows, cols, blob := d.U32(), d.U32(), d.Blob()
			if d.Err() != nil || rows != 4 || cols != 3 || !bytes.Equal(blob, blockproto.EncodeBlock(decoded)) {
				t.Fatalf("raw read of a decoded write: %dx%d, %d bytes, err %v", rows, cols, len(blob), d.Err())
			}

			raw := nanBlock(4, 3, 2)
			if status, resp := rc.call(blockproto.OpWrite, rawWrite("A", 1, 0, 4, 3, blockproto.EncodeBlock(raw))); status != blockproto.StatusOK {
				t.Fatalf("raw write: status %d %q", status, resp)
			}
			got, err := rs.ReadBlock("A", 1, 0)
			if err != nil || !bitIdentical(got, raw) {
				t.Fatalf("decoded read of a raw write is not bit-identical (err %v)", err)
			}
		})
	}
}

// A raw write with the wrong length or shape is a bad request, and nothing
// reaches the store.
func TestRemoteRawWriteRejectsBadBlocks(t *testing.T) {
	srv := startServer(t, t.TempDir())
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	defer rs.Close()
	if err := rs.Create(&prog.Array{Name: "A", BlockRows: 4, BlockCols: 3, GridRows: 1, GridCols: 1}); err != nil {
		t.Fatal(err)
	}
	orig := nanBlock(4, 3, 7)
	if err := rs.WriteBlock("A", 0, 0, orig); err != nil {
		t.Fatal(err)
	}
	before := rs.Stats()
	good := blockproto.EncodeBlock(nanBlock(4, 3, 8))
	rc := dialRaw(t, srv.Addr())
	for _, tc := range []struct {
		name       string
		rows, cols uint32
		data       []byte
	}{
		{"short", 4, 3, good[:len(good)-1]},
		{"long", 4, 3, append(good[:len(good):len(good)], 0, 0, 0, 0, 0, 0, 0, 0)},
		{"wrong shape", 3, 4, good},
		{"wrong shape, matching length", 6, 2, good},
	} {
		if status, resp := rc.call(blockproto.OpWrite, rawWrite("A", 0, 0, tc.rows, tc.cols, tc.data)); status != blockproto.StatusBadRequest {
			t.Errorf("%s: status %d %q, want StatusBadRequest", tc.name, status, resp)
		}
	}
	if after := rs.Stats(); after.WriteReqs != before.WriteReqs || after.WriteBytes != before.WriteBytes {
		t.Fatalf("rejected writes reached the store: %+v -> %+v", before, after)
	}
	got, err := rs.ReadBlock("A", 0, 0)
	if err != nil || !bitIdentical(got, orig) {
		t.Fatalf("stored block changed after rejected writes (err %v)", err)
	}
}

// Many goroutines pipelining reads and writes over one small connection
// pool must each see exactly their own bytes. Run under -race, this guards
// the pooled request and response buffers against reuse while a request
// or a decode still refers to them.
func TestRemotePipelinedReadWriteContents(t *testing.T) {
	srv := startServer(t, t.TempDir())
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{PoolSize: 2})
	defer rs.Close()
	const workers, rounds = 8, 12
	arr := &prog.Array{Name: "P", BlockRows: 16, BlockCols: 16, GridRows: workers, GridCols: 2}
	if err := rs.Create(arr); err != nil {
		t.Fatal(err)
	}
	// Column 1 holds a fixed block per row that every worker reads; column
	// 0 is each worker's own block, rewritten every round.
	fixed := make([]*blas.Matrix, workers)
	for r := range fixed {
		fixed[r] = nanBlock(16, 16, uint64(1000+r))
		if err := rs.WriteBlock("P", int64(r), 1, fixed[r]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				want := nanBlock(16, 16, uint64(w*rounds+round))
				if err := rs.WriteBlock("P", int64(w), 0, want); err != nil {
					t.Error(err)
					return
				}
				other := (w + round) % workers
				shared, err := rs.ReadBlock("P", int64(other), 1)
				if err != nil || !bitIdentical(shared, fixed[other]) {
					t.Errorf("worker %d round %d: shared block %d wrong (err %v)", w, round, other, err)
					return
				}
				got, err := rs.ReadBlock("P", int64(w), 0)
				if err != nil || !bitIdentical(got, want) {
					t.Errorf("worker %d round %d: own block wrong (err %v)", w, round, err)
					return
				}
				// Scribble on the result: it must be the caller's own
				// memory, shared with no pooled buffer.
				for i := range got.Data {
					got.Data[i] = -1
				}
			}
		}(w)
	}
	wg.Wait()
}

// One remote ReadBlock of a 32 KiB block — client and server in one
// process — allocates the decoded matrix and little else: at most 1.5x the
// block bytes, where the unpooled data plane allocated a block-sized
// buffer at every hop.
func TestRemoteReadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	srv := startServer(t, t.TempDir())
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{PoolSize: 1})
	defer rs.Close()
	arr := &prog.Array{Name: "B", BlockRows: 64, BlockCols: 64, GridRows: 1, GridCols: 1}
	if err := rs.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := nanBlock(64, 64, 3)
	if err := rs.WriteBlock("B", 0, 0, want); err != nil {
		t.Fatal(err)
	}
	const blockBytes = 64 * 64 * 8
	// Warm the connection and the buffer pools, then keep the collector
	// from emptying the pools mid-measurement.
	for i := 0; i < 4; i++ {
		if _, err := rs.ReadBlock("B", 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const reads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		got, err := rs.ReadBlock("B", 0, 0)
		if err != nil || !bitIdentical(got, want) {
			t.Fatalf("read %d wrong (err %v)", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / reads
	if perRead > 1.5*blockBytes {
		t.Fatalf("one remote read of a %d-byte block allocated %.0f bytes, budget %.0f", blockBytes, perRead, 1.5*blockBytes)
	}
	t.Logf("%.0f bytes allocated per remote read of a %d-byte block", perRead, blockBytes)
}
