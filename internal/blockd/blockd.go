// Package blockd is the network block server behind cmd/riotblockd: it
// exposes exactly one shard root — a single-directory storage.Manager plus
// that root's MANIFEST.json — over the blockproto wire protocol, turning a
// shard directory into a shard address. A ShardedManager front-end
// (riotshared) connects one remote-shard client per address and stripes
// blocks across servers exactly as it stripes across local directories:
// placement, manifests, fingerprints, and replication semantics are
// bit-identical.
//
// Each accepted connection is served by one goroutine that answers
// requests strictly in arrival order, so pipelining clients can match
// responses to requests by position. Concurrency comes from connections:
// the underlying Manager is safe for concurrent use and coalesces
// duplicate reads across them.
package blockd

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// Options configures a Server beyond its root directory.
type Options struct {
	// Format selects the on-disk block format (default DAF). It must match
	// the front-end's format; the manifest the front-end writes through
	// OpManifest records and validates it.
	Format storage.Format
	// SerialDevice serializes simulated-latency requests, modeling a
	// one-request-at-a-time device (see storage.Manager.SerialDevice).
	SerialDevice bool
	// Logf, when set, receives one line per accepted connection and per
	// connection-fatal error. Nil silences the server (tests).
	Logf func(format string, args ...any)
}

// Server serves one shard root over the blockproto protocol.
type Server struct {
	root string
	opt  Options
	mgr  *storage.Manager

	// Telemetry (built once in New, read-only afterwards): per-op
	// latency histograms and non-OK counters keyed by opcode, plus the
	// registry the -metrics-addr sidecar scrapes.
	reg    *telemetry.Registry
	opLat  map[byte]*telemetry.Histogram
	opErrs map[byte]*telemetry.Counter

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New creates a server over the shard root directory, creating it if
// needed. Call Serve or ListenAndServe to start answering.
func New(root string, opt Options) (*Server, error) {
	mgr, err := storage.NewManager(root, opt.Format)
	if err != nil {
		return nil, err
	}
	mgr.SerialDevice = opt.SerialDevice
	s := &Server{root: root, opt: opt, mgr: mgr, conns: make(map[net.Conn]struct{})}
	s.initMetrics()
	return s, nil
}

// ListenAndServe listens on addr (TCP) and serves until Close. It returns
// once the listener is accepting, serving in background goroutines — the
// pattern in-process tests and cmd/riotblockd both use; the caller owns
// shutdown via Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Publish the listener before Serve's goroutine runs, so Addr() is
	// valid the moment this returns.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("blockd: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	go s.Serve(ln)
	return nil
}

// Addr returns the bound listen address once ListenAndServe (or Serve) has
// a listener — "" before that. With ":0" this is how tests learn the port.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until Close (or a fatal accept error)
// and answers each on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("blockd: server closed")
	}
	s.ln = ln // idempotent when ListenAndServe already published it
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the listener, closes every live connection and the block
// stores, and waits for connection goroutines to drain. Safe to call more
// than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	if cerr := s.mgr.Close(); err == nil {
		err = cerr
	}
	return err
}

// logf logs through Options.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// serveConn answers one connection's requests in order until EOF or a
// connection-fatal error. Requests are answered one at a time, so one
// request buffer and one response buffer serve the whole connection: a
// payload is valid only until the next frame. A buffer an oversized frame
// grew beyond blockproto.MaxKeptBuffer is dropped after use.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	var req, resp []byte
	for {
		version, op, payload, err := blockproto.ReadFrameInto(br, req)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				s.logf("blockd: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		t0 := time.Now()
		status, out := s.handle(version, op, payload, resp)
		s.observeOp(op, status, time.Since(t0))
		if err := blockproto.WriteFrame(conn, status, out); err != nil {
			if !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				s.logf("blockd: %s: write: %v", conn.RemoteAddr(), err)
			}
			return
		}
		req = reuse(req, payload)
		resp = reuse(resp, out)
	}
}

// reuse picks the buffer to keep for the next frame: used when it grew out
// of kept, kept otherwise, and nothing once it outgrew
// blockproto.MaxKeptBuffer.
func reuse(kept, used []byte) []byte {
	switch {
	case cap(used) > blockproto.MaxKeptBuffer:
		return nil
	case cap(used) > cap(kept):
		return used[:0]
	}
	return kept
}

// isConnReset matches the peer-went-away errors a killed client leaves
// behind; they are routine, not log-worthy.
func isConnReset(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "connection reset") ||
		strings.Contains(err.Error(), "broken pipe"))
}

// errStatus maps a handler error to its wire status and message payload.
func errStatus(status byte, err error) (byte, []byte) {
	return status, new(blockproto.Enc).Str(err.Error()).Bytes()
}

// handle answers one decoded request frame. Block reads build their
// response in resp's storage.
func (s *Server) handle(version, op byte, payload, resp []byte) (byte, []byte) {
	if version != blockproto.ProtoVersion {
		return errStatus(blockproto.StatusBadVersion,
			fmt.Errorf("blockd: protocol version %d, server speaks %d", version, blockproto.ProtoVersion))
	}
	d := blockproto.NewDec(payload)
	switch op {
	case blockproto.OpPing:
		return blockproto.StatusOK, nil

	case blockproto.OpCreate:
		name := d.Str()
		arr := &prog.Array{
			Name:      name,
			BlockRows: int(d.U32()), BlockCols: int(d.U32()),
			GridRows: int(d.U32()), GridCols: int(d.U32()),
			LogicalBlockBytes: d.I64(),
		}
		ensure := d.U8() != 0
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		err := s.mgr.Create(arr)
		if err != nil && ensure && strings.Contains(err.Error(), "already created") {
			if prev := s.mgr.Registered(name); prev != nil && !sameGeometry(prev, arr) {
				// The registration is a stale leftover of an earlier client
				// session's same-named array with a different shape. Reopen
				// under the new geometry, reusing the file the way a fresh
				// local Manager would.
				_ = s.mgr.Drop(name, false)
				err = s.mgr.Create(arr)
			} else {
				err = nil
			}
		}
		if err != nil {
			if strings.Contains(err.Error(), "already created") {
				return errStatus(blockproto.StatusExists, err)
			}
			return errStatus(blockproto.StatusErr, err)
		}
		return blockproto.StatusOK, nil

	case blockproto.OpRead:
		name, r, c := d.Str(), d.I64(), d.I64()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		// Reserve the shape and length words, read the stored bytes straight
		// in behind them, then stamp the shape.
		out, rows, cols, err := s.mgr.ReadBlockRaw(name, r, c,
			append(resp[:0], make([]byte, blockproto.BlockHeaderBytes)...))
		if err != nil {
			return errStatus(storeErrStatus(err), err)
		}
		blockproto.PutBlockHeader(out, rows, cols)
		return blockproto.StatusOK, out

	case blockproto.OpWrite:
		name, r, c := d.Str(), d.I64(), d.I64()
		rows, cols := int(d.U32()), int(d.U32())
		raw := d.Blob()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		if err := s.mgr.WriteBlockRaw(name, r, c, rows, cols, raw); err != nil {
			return errStatus(storeErrStatus(err), err)
		}
		return blockproto.StatusOK, nil

	case blockproto.OpDrop:
		name, deleteFile := d.Str(), d.U8() != 0
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		if err := s.mgr.Drop(name, deleteFile); err != nil {
			return errStatus(storeErrStatus(err), err)
		}
		return blockproto.StatusOK, nil

	case blockproto.OpStats:
		st := s.mgr.Stats()
		e := new(blockproto.Enc).I64(st.ReadReqs).I64(st.ReadBytes).I64(st.WriteReqs).I64(st.WriteBytes)
		return blockproto.StatusOK, e.Bytes()

	case blockproto.OpManifest:
		return s.handleManifest(d)

	case blockproto.OpStat:
		name := d.Str()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		exists := byte(0)
		if _, err := os.Stat(s.storePath(name)); err == nil {
			exists = 1
		} else if !errors.Is(err, fs.ErrNotExist) {
			return errStatus(blockproto.StatusErr, err)
		}
		return blockproto.StatusOK, new(blockproto.Enc).U8(exists).Bytes()

	case blockproto.OpWipe:
		name := d.Str()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		// Close an open store first so the removal cannot race a write
		// through a surviving descriptor; an unregistered array is fine.
		_ = s.mgr.Drop(name, false)
		if err := os.Remove(s.storePath(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return errStatus(blockproto.StatusErr, err)
		}
		return blockproto.StatusOK, nil

	case blockproto.OpLatency:
		read, write := d.I64(), d.I64()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		s.mgr.SetLatency(time.Duration(read), time.Duration(write))
		return blockproto.StatusOK, nil

	default:
		return errStatus(blockproto.StatusBadRequest, fmt.Errorf("blockd: unknown opcode %d", op))
	}
}

// handleManifest answers the three OpManifest sub-operations against the
// shard root's MANIFEST.json.
func (s *Server) handleManifest(d *blockproto.Dec) (byte, []byte) {
	sub := d.U8()
	path := filepath.Join(s.root, "MANIFEST.json")
	switch sub {
	case blockproto.ManifestGet:
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return errStatus(blockproto.StatusNotFound, err)
		}
		if err != nil {
			return errStatus(blockproto.StatusErr, err)
		}
		return blockproto.StatusOK, new(blockproto.Enc).Blob(data).Bytes()
	case blockproto.ManifestPut:
		data := d.Blob()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		// The same crash-safe tmp+fsync+rename discipline local shard
		// roots get: a riotblockd crash never leaves a torn manifest.
		if err := storage.AtomicWriteFile(path, data, 0o644); err != nil {
			return errStatus(blockproto.StatusErr, err)
		}
		return blockproto.StatusOK, nil
	case blockproto.ManifestDel:
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return errStatus(blockproto.StatusErr, err)
		}
		return blockproto.StatusOK, nil
	default:
		return errStatus(blockproto.StatusBadRequest, fmt.Errorf("blockd: unknown manifest sub-op %d", sub))
	}
}

// sameGeometry reports whether two registrations of one array name agree
// on block shape, grid shape, and logical block bytes — everything the
// store layout depends on.
func sameGeometry(a, b *prog.Array) bool {
	return a.BlockRows == b.BlockRows && a.BlockCols == b.BlockCols &&
		a.GridRows == b.GridRows && a.GridCols == b.GridCols &&
		a.LogicalBlockBytes == b.LogicalBlockBytes
}

// storePath is the on-disk store file of one array under this root.
func (s *Server) storePath(name string) string {
	return filepath.Join(s.root, name+"."+s.opt.Format.String())
}

// storeErrStatus classifies a Manager error for the wire: "unknown array"
// becomes its own status so clients can treat it as an application error
// (never a connection failure), and a block that does not fit its array's
// geometry is a malformed request.
func storeErrStatus(err error) byte {
	switch {
	case errors.Is(err, storage.ErrBadBlock):
		return blockproto.StatusBadRequest
	case strings.Contains(err.Error(), "unknown array"):
		return blockproto.StatusUnknownArray
	}
	return blockproto.StatusErr
}

// StdLogf adapts the standard library logger for Options.Logf.
func StdLogf(format string, args ...any) { log.Printf(format, args...) }
