package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"riotshare/internal/blockd"
	"riotshare/internal/server"
	"riotshare/internal/telemetry"
)

// countingListener counts the connections it accepts and the bytes that
// cross them in both directions: the blockd wire as the benchmark sees it.
type countingListener struct {
	net.Listener
	conns, bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// blockNode is one loopback riotblockd server.
type blockNode struct {
	srv    *blockd.Server
	ln     *countingListener
	served chan struct{}
}

func startBlockd(dir string) (*blockNode, error) {
	b, err := blockd.New(dir, blockd.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Close()
		return nil, err
	}
	n := &blockNode{srv: b, ln: &countingListener{Listener: ln}, served: make(chan struct{})}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(n.ln) // returns nil once Close stops it
	}()
	return n, nil
}

func (n *blockNode) addr() string { return n.ln.Addr().String() }

func (n *blockNode) close() {
	n.srv.Close()
	<-n.served
}

// startBlockdPair starts the two loopback block servers a striped store
// uses, under dir/blockd-0 and dir/blockd-1.
func startBlockdPair(dir string) ([]*blockNode, error) {
	var nodes []*blockNode
	for i := 0; i < 2; i++ {
		n, err := startBlockd(filepath.Join(dir, fmt.Sprintf("blockd-%d", i)))
		if err != nil {
			for _, m := range nodes {
				m.close()
			}
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// service is one server.Server on a loopback HTTP listener, with its
// block servers when the store is striped over blockd, and the HTTP client
// the benchmark drives it with.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	blockd []*blockNode
}

func startService(w *workload, seed int64, dir string) (*service, error) {
	cfg := w.cfg
	cfg.Seed = seed
	cfg.SlowQueryLog = io.Discard
	svc := &service{served: make(chan struct{})}
	if w.blockd {
		nodes, err := startBlockdPair(dir)
		if err != nil {
			return nil, err
		}
		svc.blockd = nodes
		for _, n := range nodes {
			cfg.ShardAddrs = append(cfg.ShardAddrs, n.addr())
		}
	} else {
		cfg.Dir = filepath.Join(dir, "store")
	}
	srv, err := server.New(cfg)
	if err != nil {
		svc.closeBlockd()
		return nil, err
	}
	svc.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		svc.closeBlockd()
		return nil, err
	}
	svc.base = "http://" + ln.Addr().String()
	svc.hs = &http.Server{Handler: srv.Handler()}
	go func() {
		defer close(svc.served)
		_ = svc.hs.Serve(ln) // http.ErrServerClosed after Shutdown
	}()
	// At most one connection per client goroutine.
	svc.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: w.clients, MaxIdleConnsPerHost: w.clients, DisableCompression: true,
	}}
	return svc, nil
}

func (s *service) closeBlockd() {
	for _, n := range s.blockd {
		n.close()
	}
}

// close shuts the HTTP listener, the server and its block servers down
// and waits for their goroutines.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // idle connections only; queries are done
	<-s.served
	s.client.CloseIdleConnections()
	if err := s.srv.Close(); err != nil {
		logf("server close: %v", err)
	}
	s.closeBlockd()
}

// wire sums the blockd listeners' connections and bytes.
func (s *service) wire() (conns, bytes int64) {
	for _, n := range s.blockd {
		conns += n.ln.conns.Load()
		bytes += n.ln.bytes.Load()
	}
	return conns, bytes
}

func (s *service) get(path string, q url.Values) (*http.Response, error) {
	resp, err := s.client.Get(s.base + path + "?" + q.Encode())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // for the error message only
		resp.Body.Close()
		return nil, &httpError{path: path, code: resp.StatusCode, body: string(bytes.TrimSpace(body))}
	}
	return resp, nil
}

type httpError struct {
	path string
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("GET %s: %d %s", e.path, e.code, e.body) }

func (s *service) getJSON(path string, q url.Values, v any) error {
	resp, err := s.get(path, q)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, v)
}

// decode reads one JSON value and drains the body, so the connection is
// reused instead of closed.
func decode(resp *http.Response, v any) error {
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s: decode: %w", resp.Request.URL.Path, err)
	}
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}

func (s *service) submit(req server.Request) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.base+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := decode(resp, &out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %d %s", resp.StatusCode, out.Error)
	}
	return out.ID, nil
}

func (s *service) wait(id string) (server.QueryStatus, error) {
	var st server.QueryStatus
	err := s.getJSON("/results", url.Values{"id": {id}, "wait": {"1"}}, &st)
	return st, err
}

func (s *service) status(id string) (server.QueryStatus, error) {
	var st server.QueryStatus
	err := s.getJSON("/status", url.Values{"id": {id}}, &st)
	return st, err
}

// stream reads a query's binary result stream to its end frame, summing
// each array in arrival order. retain=drop retires the output stores once
// the stream and the query are done, so disk use stays flat.
func (s *service) stream(id string) (map[string]float64, error) {
	resp, err := s.get("/results/stream", url.Values{"id": {id}, "retain": {"drop"}})
	if err != nil {
		return nil, err
	}
	// Hanging up after the end frame discards the connection: with
	// retain=drop the handler holds the response open until the query's
	// result-fetch phase ends, and draining would wait for it.
	defer resp.Body.Close()
	return streamSums(resp.Body)
}

func (s *service) stats() (server.Stats, error) {
	var st server.Stats
	err := s.getJSON("/stats", nil, &st)
	return st, err
}

// trace fetches a completed span tree. The stream's tree is filed just
// after its last frame is written, so a miss is retried briefly.
func (s *service) trace(id string) (*telemetry.Span, error) {
	var tr telemetry.Trace
	var err error
	for i := 0; i < 200; i++ {
		err = s.getJSON("/trace", url.Values{"id": {id}}, &tr)
		var he *httpError
		if !errors.As(err, &he) || he.code != http.StatusNotFound {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return nil, err
	}
	if tr.Root == nil {
		return nil, fmt.Errorf("trace %s: empty", id)
	}
	return tr.Root, nil
}

// idle waits until every submitted query has finished, so counters read
// afterwards include the whole of each measured query.
func (s *service) idle() (server.Stats, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, err := s.stats()
		if err != nil {
			return st, err
		}
		// Every greedy-planned entry is re-planned once by the improver.
		improving := st.Improver != nil &&
			st.Improver.Runs+st.Improver.Dropped < st.PlanningTiers["greedy"].Count
		if st.Finished == st.Submitted && !improving {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, errors.New("server did not go idle within 2 minutes")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// query runs one closed-loop query: submit, then take the result and
// verify it. It returns the query's ID and when the submit was answered.
func (s *service) query(p *program, n int, tenant string, stream bool, ref *reference) (id string, acked time.Time, err error) {
	req := p.request(n)
	req.Tenant = tenant
	id, err = s.submit(req)
	acked = time.Now()
	if err != nil {
		return "", acked, err
	}
	if !stream {
		st, err := s.wait(id)
		if err != nil {
			return id, acked, err
		}
		return id, acked, ref.checkStatus(st)
	}
	sums, err := s.stream(id)
	if err != nil {
		return id, acked, err
	}
	// The plan label decides between the exact and the 1e-9 comparison;
	// planning is over once the first block has streamed.
	st, err := s.status(id)
	if err != nil {
		return id, acked, err
	}
	return id, acked, ref.checkStream(sums, st.PlanLabel)
}

// logf writes a progress line to standard error; standard output carries
// only the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
