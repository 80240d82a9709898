package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"riotshare/internal/prog"
)

func newHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Dir:      t.TempDir(),
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// An oversized /submit body is refused with 413 before it is decoded in
// full, and creates no query.
func TestHTTPSubmitBodyBounded(t *testing.T) {
	s, ts := newHTTPServer(t)
	body := `{"program":"addmul-small","tenant":"` + strings.Repeat("x", maxSubmitBytes) + `"}`
	resp, err := http.Post(ts.URL+"/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit status = %d, want %d", resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if qs := s.List(); len(qs) != 0 {
		t.Errorf("oversized submit created %d queries, want 0", len(qs))
	}
}

func TestHTTPSubmitStatusResultsStats(t *testing.T) {
	_, ts := newHTTPServer(t)

	body, _ := json.Marshal(Request{Program: "addmul-small", Tenant: "acme"})
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var sub struct{ ID, State string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" {
		t.Fatal("no query id returned")
	}

	// Blocking results fetch.
	resp, err = http.Get(ts.URL + "/results?wait=1&id=" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	var st QueryStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateDone {
		t.Fatalf("state = %s, err %q", st.State, st.Err)
	}
	if st.Result == nil || st.Result.ReadReqs == 0 {
		t.Fatalf("result missing or empty: %+v", st.Result)
	}
	if len(st.Outputs) == 0 {
		t.Fatal("no output summaries")
	}

	// Status endpoint agrees.
	resp, err = http.Get(ts.URL + "/status?id=" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st2 QueryStatus
	if err := json.NewDecoder(resp.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st2.State != StateDone {
		t.Fatalf("status endpoint state = %s", st2.State)
	}

	// Stats reflect the run.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Finished != 1 || stats.Store.ReadReqs == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if acme := stats.Tenants["acme"]; acme.Submitted != 1 || acme.Finished != 1 || acme.PoolMisses == 0 {
		t.Fatalf("tenant stats = %+v, want acme's submission and pool activity", stats.Tenants)
	}

	// The per-tenant filter answers with just that tenant's slice, and 404s
	// an unknown tenant.
	resp, err = http.Get(ts.URL + "/stats?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	var tstats TenantStats
	if err := json.NewDecoder(resp.Body).Decode(&tstats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tstats.Finished != 1 {
		t.Fatalf("/stats?tenant=acme = %+v", tstats)
	}
	resp, err = http.Get(ts.URL + "/stats?tenant=nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant stats status = %d", resp.StatusCode)
	}

	// Queries listing.
	resp, err = http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list []QueryStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("queries = %+v", list)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newHTTPServer(t)

	// Unknown program → 400.
	body, _ := json.Marshal(Request{Program: "nope"})
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown program status = %d", resp.StatusCode)
	}

	// Unknown query → 404.
	resp, err = http.Get(ts.URL + "/status?id=q999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown query status = %d", resp.StatusCode)
	}

	// GET on /submit → 405.
	resp, err = http.Get(ts.URL + "/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /submit status = %d", resp.StatusCode)
	}
}

// /repair re-mirrors a degraded shard of a replicated store over HTTP; on
// an unsharded server (and for malformed requests) it fails cleanly.
func TestHTTPRepair(t *testing.T) {
	// Unsharded server: nothing to repair.
	_, ts := newHTTPServer(t)
	resp, err := http.Post(ts.URL+"/repair?shard=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("repair on unsharded store status = %d, want 409", resp.StatusCode)
	}

	// Replicated server: repair succeeds, GET and garbage are rejected.
	s, err := New(Config{
		Dir:      t.TempDir(),
		Shards:   3,
		Replicas: 2,
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	defer func() {
		ts2.Close()
		s.Close()
	}()
	runOne(t, s, "addmul-small")

	resp, err = http.Get(ts2.URL + "/repair?shard=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /repair status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts2.URL+"/repair?shard=x", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /repair?shard=x status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts2.URL+"/repair?shard=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Repaired int `json:"repaired"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Repaired != 1 {
		t.Fatalf("POST /repair?shard=1 = %d %+v, want 200 repaired=1", resp.StatusCode, rep)
	}
}
