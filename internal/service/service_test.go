package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/gen"
	"repro/internal/graph"
)

// cycleGraph6 returns the graph6 line for the n-cycle. C_n has
// Catalan(n-2) minimal triangulations (polygon triangulations), which the
// lifecycle tests rely on: C5 → 5, C6 → 14.
func cycleGraph6(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteGraph6(&buf, gen.Cycle(n)); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(buf.String())
}

func postEnumerate(t *testing.T, ts *httptest.Server, body string) (*EnumerateResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("enumerate: status %d: %s", resp.StatusCode, data)
	}
	var out EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

func getNext(t *testing.T, ts *httptest.Server, token string, pageSize int) (*EnumerateResponse, int) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/sessions/%s/next", ts.URL, token)
	if pageSize > 0 {
		url += fmt.Sprintf("?page_size=%d", pageSize)
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func getStats(t *testing.T, ts *httptest.Server) *StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestEnumerateResumeExhaust drives the full lifecycle over HTTP: first
// page with a resume token, paging until exhaustion, token invalidation
// afterwards, and cost monotonicity across pages.
func TestEnumerateResumeExhaust(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 5) // 5 minimal triangulations

	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 2}`, g6))
	if first.Done || first.Session == "" {
		t.Fatalf("want live session after first page, got done=%v session=%q", first.Done, first.Session)
	}
	if len(first.Results) != 2 {
		t.Fatalf("first page: want 2 results, got %d", len(first.Results))
	}
	if first.Graph == nil || first.Graph.N != 5 || first.Graph.Fingerprint == "" {
		t.Fatalf("bad graph info: %+v", first.Graph)
	}
	if first.Solver == nil || first.Solver.PMCs == 0 {
		t.Fatalf("bad solver info: %+v", first.Solver)
	}

	all := append([]TriangulationJSON(nil), first.Results...)
	token := first.Session
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("enumeration did not exhaust")
		}
		page, status := getNext(t, ts, token, 2)
		if status != http.StatusOK {
			t.Fatalf("next: status %d", status)
		}
		all = append(all, page.Results...)
		if page.Done {
			if page.Session != "" {
				t.Fatal("done page should not carry a session token")
			}
			break
		}
	}
	if len(all) != 5 {
		t.Fatalf("C5: want 5 minimal triangulations, got %d", len(all))
	}
	for i := range all {
		if all[i].Index != i {
			t.Fatalf("result %d has index %d", i, all[i].Index)
		}
		if i > 0 && all[i].Cost < all[i-1].Cost {
			t.Fatalf("costs not non-decreasing: %g after %g", all[i].Cost, all[i-1].Cost)
		}
	}

	if _, status := getNext(t, ts, token, 0); status != http.StatusNotFound {
		t.Fatalf("exhausted token should 404, got %d", status)
	}
	if stats := getStats(t, ts); stats.Sessions.Live != 0 {
		t.Fatalf("no session should remain, got %d", stats.Sessions.Live)
	}
}

// TestCacheHitOnResubmission submits the same graph twice and expects the
// second request to be served by the cached solver.
func TestCacheHitOnResubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 6)
	body := fmt.Sprintf(`{"graph6": %q, "page_size": 3}`, g6)

	first, _ := postEnumerate(t, ts, body)
	if first.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	second, _ := postEnumerate(t, ts, body)
	if !second.CacheHit {
		t.Fatal("second submission of the same graph should hit the solver cache")
	}
	stats := getStats(t, ts)
	if stats.Pool.Hits < 1 || stats.Pool.Misses < 1 {
		t.Fatalf("stats should record the hit and the miss: %+v", stats.Pool)
	}
	// Different cost => different solver => miss.
	third, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill"}`, g6))
	if third.CacheHit {
		t.Fatal("different cost must not share a solver")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"invalid graph6":  `{"graph6": "@@##notgraph6"}`,
		"no source":       `{"cost": "width"}`,
		"two sources":     `{"graph6": "D?{", "edges": [[0,1]]}`,
		"self loop":       `{"edges": [[1,1]]}`,
		"out of range":    `{"n": 2, "edges": [[0,5]]}`,
		"unknown cost":    `{"edges": [[0,1]], "cost": "nope"}`,
		"bad domains":     `{"edges": [[0,1]], "cost": "statespace", "domains": [2]}`,
		"hyper cost":      `{"edges": [[0,1]], "cost": "hypertree"}`,
		"negative bound":  `{"edges": [[0,1]], "bound": -2}`,
		"not json":        `hello`,
		"empty hyperedge": `{"hyperedges": [[]]}`,
		"too many verts":  `{"n": 4096, "edges": [[0,1]]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d", name, resp.StatusCode)
		}
	}
}

// TestSessionEviction parks a session past the idle timeout and expects
// the janitor to evict it.
func TestSessionEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5)))
	if first.Session == "" {
		t.Fatal("want a live session")
	}
	deadline := time.Now().Add(5 * time.Second)
	for getStats(t, ts).Sessions.Expired < 1 {
		if time.Now().After(deadline) {
			t.Fatal("session was not evicted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if stats := getStats(t, ts); stats.Sessions.Live != 0 {
		t.Fatalf("no session should remain: %+v", stats.Sessions)
	}
	if _, status := getNext(t, ts, first.Session, 1); status != http.StatusNotFound {
		t.Fatalf("evicted token should 404, got %d", status)
	}
}

// TestCancelledEnumerateLeavesNoSession serves an enumerate request whose
// context is already cancelled and checks no session leaks.
func TestCancelledEnumerateLeavesNoSession(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5))
	req := httptest.NewRequest("POST", "/v1/enumerate", strings.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Fatalf("cancelled request should not succeed, got %d: %s", w.Code, w.Body)
	}
	if live := srv.Sessions().Stats().Live; live != 0 {
		t.Fatalf("cancelled request left %d live sessions", live)
	}
}

// TestStreamNDJSON checks the streaming mode: every result on its own
// line, a final summary line, and no session created.
func TestStreamNDJSON(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"graph6": %q, "stream": true}`, cycleGraph6(t, 5))
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("want NDJSON content type, got %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 { // 5 results + summary
		t.Fatalf("want 6 NDJSON lines, got %d: %s", len(lines), data)
	}
	var last struct {
		Done  bool `json:"done"`
		Count int  `json:"count"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Done || last.Count != 5 {
		t.Fatalf("bad summary line: %s", lines[len(lines)-1])
	}
	if live := srv.Sessions().Stats().Live; live != 0 {
		t.Fatalf("streaming must not create sessions, got %d", live)
	}
}

// TestStreamMaxResults truncates a stream after max_results.
func TestStreamMaxResults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"graph6": %q, "stream": true, "max_results": 2}`, cycleGraph6(t, 6))
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 2 results + summary, got %d lines", len(lines))
	}
}

// TestEdgeListAndCosts smoke-tests the edge-list input and each cost.
func TestEdgeListAndCosts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	edges := `"edges": [[0,1],[1,2],[2,3],[3,0]]`
	for _, c := range []string{"width", "fill", "lex", "statespace"} {
		resp, _ := postEnumerate(t, ts, fmt.Sprintf(`{%s, "cost": %q, "page_size": 10}`, edges, c))
		if len(resp.Results) != 2 { // C4 has exactly 2 minimal triangulations
			t.Fatalf("cost %s: want 2 results, got %d", c, len(resp.Results))
		}
		if !resp.Done {
			t.Fatalf("cost %s: C4 should exhaust in one page", c)
		}
	}
}

// TestHypergraphCosts enumerates a hypergraph by hypertree width.
func TestHypergraphCosts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"hyperedges": [[0,1,2],[2,3],[3,4,0]], "cost": "hypertree", "page_size": 50}`
	resp, _ := postEnumerate(t, ts, body)
	if len(resp.Results) == 0 {
		t.Fatal("hypergraph enumeration returned nothing")
	}
	if resp.Cost != "hypertree-width" {
		t.Fatalf("want hypertree-width cost, got %q", resp.Cost)
	}
}

// TestBoundedEnumeration checks the width bound reaches MinTriangB.
func TestBoundedEnumeration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"graph6": %q, "bound": 2, "page_size": 100}`, cycleGraph6(t, 6))
	resp, _ := postEnumerate(t, ts, body)
	for _, r := range resp.Results {
		if r.Width > 2 {
			t.Fatalf("bound violated: width %d", r.Width)
		}
	}
	if len(resp.Results) == 0 {
		t.Fatal("C6 has width-2 triangulations")
	}
}

// TestSessionInfoAndDelete covers the metadata and early-close endpoints.
func TestSessionInfoAndDelete(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5)))
	resp, err := http.Get(ts.URL + "/v1/sessions/" + first.Session)
	if err != nil {
		t.Fatal(err)
	}
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Emitted != 1 {
		t.Fatalf("want 1 emitted, got %d", info.Emitted)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+first.Session, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: want 204, got %d", dresp.StatusCode)
	}
	if _, status := getNext(t, ts, first.Session, 0); status != http.StatusNotFound {
		t.Fatalf("deleted session should 404, got %d", status)
	}
}

// openSolver serves a stream straight from the entry's DP solver.
func openSolver(s *core.Solver) core.Backend { return s }

// TestPoolSingleflight hammers one key concurrently and expects exactly
// one initialization.
func TestPoolSingleflight(t *testing.T) {
	store := NewStreamStore(0, 4)
	g := gen.Cycle(6)
	key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "width", Bound: -1}
	builds := make(chan struct{}, 64)
	const callers = 16
	errc := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			h, err := store.Acquire(context.Background(), key, func(ctx context.Context) (*core.Solver, error) {
				builds <- struct{}{}
				return core.NewSolverContext(ctx, g, cost.Width{})
			}, openSolver)
			if err == nil {
				h.Release()
			}
			errc <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if n := len(builds); n != 1 {
		t.Fatalf("want exactly 1 build, got %d", n)
	}
	if stats, _, _ := store.SolverStats(); stats.Misses != 1 || stats.Hits != callers-1 {
		t.Fatalf("bad stats: %+v", stats)
	}
}

// TestPoolEviction fills the cache past its entry cap and expects LRU
// eviction of the unreferenced solvers.
func TestPoolEviction(t *testing.T) {
	store := NewStreamStore(0, 2)
	for n := 4; n <= 7; n++ {
		g := gen.Cycle(n)
		key := SolverKey{Fingerprint: g.Fingerprint(), Cost: "width", Bound: -1}
		h, err := store.Acquire(context.Background(), key, func(ctx context.Context) (*core.Solver, error) {
			return core.NewSolverContext(ctx, g, cost.Width{})
		}, openSolver)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	stats, _, _ := store.SolverStats()
	if stats.Size != 2 {
		t.Fatalf("want 2 cached solvers, got %d", stats.Size)
	}
	if stats.Evictions != 2 {
		t.Fatalf("want 2 evictions, got %+v", stats)
	}
}

// TestPoolAbandonedInit cancels the only waiter of an in-flight build and
// expects the build context to be cancelled with it.
func TestPoolAbandonedInit(t *testing.T) {
	store := NewStreamStore(0, 2)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	cancelled := make(chan struct{})
	go func() {
		store.Acquire(ctx, SolverKey{Fingerprint: "x"}, func(bctx context.Context) (*core.Solver, error) {
			close(started)
			<-bctx.Done()
			close(cancelled)
			return nil, bctx.Err()
		}, openSolver)
	}()
	<-started
	cancel()
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("build context was not cancelled after its last waiter left")
	}
}

// TestPoolPanickingBuild: a build that panics fails its Acquire with an
// error naming the panic, is not cached, and leaves the store serving.
func TestPoolPanickingBuild(t *testing.T) {
	store := NewStreamStore(0, 4)
	_, err := store.Acquire(context.Background(), SolverKey{Fingerprint: "boom"}, func(context.Context) (*core.Solver, error) {
		panic("injected cost failure")
	}, openSolver)
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "injected cost failure") {
		t.Fatalf("want an error naming the panic, got %v", err)
	}
	if stats, _, _ := store.SolverStats(); stats.Size != 0 || stats.Inflight != 0 {
		t.Fatalf("a failed build must not be cached: %+v", stats)
	}
	g := gen.Cycle(5)
	h, err := store.Acquire(context.Background(), SolverKey{Fingerprint: g.Fingerprint()}, func(ctx context.Context) (*core.Solver, error) {
		return core.NewSolverContext(ctx, g, cost.Width{})
	}, openSolver)
	if err != nil {
		t.Fatalf("the store must keep serving after a panicking build: %v", err)
	}
	defer h.Release()
	if _, ok, err := h.At(context.Background(), 0); !ok || err != nil {
		t.Fatalf("rank 0 after the panic: ok=%v err=%v", ok, err)
	}
}

// TestSolverLivesWithItsStreams is the one-cache regression test. With
// room for a single graph, a live paged session on C7 keeps C7's entry —
// solver and stream — referenced while C8 is served, so a second C7
// request reuses the solver its stream already pins instead of starting
// a second initialization of the same graph.
func TestSolverLivesWithItsStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 1, PageSize: 2})
	c7 := fmt.Sprintf(`{"graph6": %q}`, cycleGraph6(t, 7))
	if first, _ := postEnumerate(t, ts, c7); first.Done || first.Session == "" {
		t.Fatalf("C7 must leave a live session: %+v", first)
	}
	postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q}`, cycleGraph6(t, 8)))
	again, _ := postEnumerate(t, ts, c7)
	if !again.CacheHit {
		t.Fatal("second C7 request re-initialized the solver its live stream still holds")
	}
	if stats := getStats(t, ts); stats.Pool.Misses != 2 {
		t.Fatalf("want 2 solver builds (C7, C8), got %+v", stats.Pool)
	}
}

// TestEdgelessGraph accepts {"n": k} as the edgeless graph on k vertices.
func TestEdgelessGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postEnumerate(t, ts, `{"n": 3, "page_size": 5}`)
	if len(resp.Results) == 0 || !resp.Done {
		t.Fatalf("edgeless graph should enumerate to completion: %+v", resp)
	}
	if resp.Graph.N != 3 || resp.Graph.M != 0 {
		t.Fatalf("bad graph info: %+v", resp.Graph)
	}
}

// TestOversizedDefaultPageSize clamps a configured page size above the
// hard cap.
func TestOversizedDefaultPageSize(t *testing.T) {
	srv := New(Config{PageSize: 50000})
	defer srv.Close()
	if srv.cfg.PageSize != maxPageSize {
		t.Fatalf("configured page size should clamp to %d, got %d", maxPageSize, srv.cfg.PageSize)
	}
}

// TestStreamTruncation marks a stream cut off by the lifetime budget as
// not done.
func TestStreamTruncation(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamTimeout: time.Nanosecond})
	body := fmt.Sprintf(`{"graph6": %q, "stream": true}`, cycleGraph6(t, 6))
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last struct {
		Done      bool `json:"done"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Done || !last.Truncated {
		t.Fatalf("budget-cut stream must report truncation, got %s", lines[len(lines)-1])
	}
}

// TestNextPageRedelivery cancels a paging request mid-page and checks the
// pulled results are redelivered (not lost) on the retry.
func TestNextPageRedelivery(t *testing.T) {
	m := NewSessionManager(4, time.Minute)
	defer m.Close()
	solver := core.NewSolver(gen.Cycle(5), cost.Width{})
	sess, err := m.Create(acquire(NewStreamStore(0, 0), SolverKey{}, solver), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, results, _, err := sess.NextPage(cancelled, 2); err == nil || results != nil {
		t.Fatalf("cancelled page should error without results, got %v, %v", results, err)
	}
	start, results, done, err := sess.NextPage(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if start != 0 || len(results) != 5 || !done {
		t.Fatalf("retry should deliver the full stream from rank 0: start=%d n=%d done=%v", start, len(results), done)
	}
}

// TestNextPageAfterEviction distinguishes eviction from exhaustion.
func TestNextPageAfterEviction(t *testing.T) {
	m := NewSessionManager(4, time.Minute)
	defer m.Close()
	solver := core.NewSolver(gen.Cycle(5), cost.Width{})
	sess, err := m.Create(acquire(NewStreamStore(0, 0), SolverKey{}, solver), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Remove(sess.Token) // cancels the session context
	if _, _, done, err := sess.NextPage(context.Background(), 2); !errors.Is(err, ErrSessionNotFound) || done {
		t.Fatalf("evicted session must report ErrSessionNotFound, not done=%v err=%v", done, err)
	}
}

// TestCreateAfterClose reports shutdown, not a bogus missing session.
func TestCreateAfterClose(t *testing.T) {
	m := NewSessionManager(4, time.Minute)
	m.Close()
	solver := core.NewSolver(gen.Cycle(4), cost.Width{})
	if _, err := m.Create(acquire(NewStreamStore(0, 0), SolverKey{}, solver), nil, nil); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("want ErrShuttingDown, got %v", err)
	}
}

// TestReplayAnchorOnError: Replay's error returns must carry the
// requested anchor rank, not the zero value of the named return — an
// error response claiming the replay was anchored at rank 0 would send a
// recovering client back to re-fetch pages it already has.
func TestReplayAnchorOnError(t *testing.T) {
	m := NewSessionManager(4, time.Minute)
	solver := core.NewSolver(gen.Cycle(6), cost.Width{})
	sess, err := m.Create(acquire(NewStreamStore(0, 0), SolverKey{}, solver), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sess.NextPage(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	m.Close() // cancels the session's context under the live cursor
	start, results, _, ok, rerr := sess.Replay(context.Background(), 3, 2)
	if !ok || !errors.Is(rerr, ErrSessionNotFound) {
		t.Fatalf("replay on a dead session: ok=%v err=%v", ok, rerr)
	}
	if start != 3 || results != nil {
		t.Fatalf("error replay must echo the anchor rank 3 without results, got start=%d results=%v", start, results)
	}
}

// TestPageReplay re-serves the last page via ?from= (the recovery path
// for a response lost mid-write) and rejects unreplayable ranks.
func TestPageReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 2}`, cycleGraph6(t, 6)))
	page, status := getNext(t, ts, first.Session, 2) // ranks 2,3
	if status != http.StatusOK || len(page.Results) != 2 {
		t.Fatalf("setup page failed: %d %+v", status, page)
	}
	replayURL := fmt.Sprintf("%s/v1/sessions/%s/next?from=%d", ts.URL, first.Session, page.Results[0].Index)
	resp, err := http.Get(replayURL)
	if err != nil {
		t.Fatal(err)
	}
	var replay EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&replay); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(replay.Results) != 2 || replay.Results[0].Index != 2 || replay.Results[1].Index != 3 {
		t.Fatalf("replay should re-serve ranks 2,3, got %+v", replay.Results)
	}
	// Paging continues from the live cursor afterwards.
	cont, status := getNext(t, ts, first.Session, 2)
	if status != http.StatusOK || cont.Results[0].Index != 4 {
		t.Fatalf("paging after replay should resume at rank 4, got %d %+v", status, cont.Results)
	}
	// Any committed rank is replayable, not just the last page: the shared
	// stream buffer retains the whole prefix.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/next?from=0&page_size=3", ts.URL, first.Session))
	if err != nil {
		t.Fatal(err)
	}
	var old EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&old); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(old.Results) != 3 || old.Results[0].Index != 0 || old.Results[2].Index != 2 {
		t.Fatalf("replay from 0 should re-serve ranks 0..2, got %+v", old.Results)
	}
	// A rank beyond the cursor is a conflict.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/next?from=100", ts.URL, first.Session))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("from beyond the cursor should 409, got %d", resp.StatusCode)
	}
	// from equal to the current cursor pages normally.
	resp, err = http.Get(fmt.Sprintf("%s/v1/sessions/%s/next?from=6&page_size=2", ts.URL, first.Session))
	if err != nil {
		t.Fatal(err)
	}
	var cur EnumerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cur.Results) != 2 || cur.Results[0].Index != 6 {
		t.Fatalf("from=cursor should page normally from rank 6, got %+v", cur.Results)
	}
}

// TestBadPageSizeQuery rejects trailing garbage in the page_size query.
func TestBadPageSizeQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "page_size": 1}`, cycleGraph6(t, 5)))
	for _, q := range []string{"5x", "abc", "1.5"} {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + first.Session + "/next?page_size=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("page_size=%s: want 400, got %d", q, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// TestStatsSolverReuseCounters checks that /v1/stats surfaces the
// incremental-DP counters of the cached solvers after an enumeration, and
// that the FullResolve ablation knob keeps the output identical while
// reporting a dirty ratio of 100%.
func TestStatsSolverReuseCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g6 := cycleGraph6(t, 6)
	first, _ := postEnumerate(t, ts, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 100}`, g6))
	if !first.Done {
		t.Fatalf("cycle enumeration should exhaust in one page, got done=%v", first.Done)
	}
	stats := getStats(t, ts)
	if stats.Solver.ConstrainedSolves == 0 {
		t.Fatal("stats report no constrained solves after an enumeration")
	}
	if stats.Solver.ReusedBlocks == 0 {
		t.Fatal("incremental solver reused no blocks")
	}

	_, tsFull := newTestServer(t, Config{FullResolve: true})
	full, _ := postEnumerate(t, tsFull, fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 100}`, g6))
	if len(full.Results) != len(first.Results) {
		t.Fatalf("full-resolve enumeration emitted %d results, incremental %d", len(full.Results), len(first.Results))
	}
	for i := range full.Results {
		if full.Results[i].Cost != first.Results[i].Cost || fmt.Sprint(full.Results[i].Bags) != fmt.Sprint(first.Results[i].Bags) {
			t.Fatalf("full-resolve result %d differs from incremental", i)
		}
	}
	fullStats := getStats(t, tsFull)
	if fullStats.Solver.ConstrainedSolves != 0 {
		t.Fatalf("full-resolve solver should bypass the incremental counters, got %d solves", fullStats.Solver.ConstrainedSolves)
	}
}

// TestAtomDecompositionService drives a clique-separated graph through
// both a default server and a NoDecompose server: the decomposed solver
// must report its atom shape in the enumerate response and /v1/stats, and
// the two servers must emit the same enumeration (costs, widths, fills)
// rank by rank.
func TestAtomDecompositionService(t *testing.T) {
	// Two 4-cycles sharing a cut vertex: two atoms of 4 vertices each.
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 3}} {
		g.AddEdge(e[0], e[1])
	}
	var buf bytes.Buffer
	if err := graph.WriteGraph6(&buf, g); err != nil {
		t.Fatal(err)
	}
	g6 := strings.TrimSpace(buf.String())
	body := fmt.Sprintf(`{"graph6": %q, "cost": "fill", "page_size": 100}`, g6)

	_, tsDec := newTestServer(t, Config{})
	dec, _ := postEnumerate(t, tsDec, body)
	if dec.Solver == nil || dec.Solver.Atoms < 2 {
		t.Fatalf("expected a decomposed solver, got %+v", dec.Solver)
	}
	if dec.Solver.LargestAtom >= 7 {
		t.Fatalf("largest atom %d should be smaller than the graph", dec.Solver.LargestAtom)
	}
	stats := getStats(t, tsDec)
	if stats.Atoms.DecomposedSolvers != 1 || stats.Atoms.TotalAtoms != dec.Solver.Atoms {
		t.Fatalf("atom stats %+v inconsistent with solver info %+v", stats.Atoms, dec.Solver)
	}
	if stats.Atoms.ReadySubSolvers != dec.Solver.Atoms {
		t.Fatalf("expected all %d sub-solvers ready after paging, got %d", dec.Solver.Atoms, stats.Atoms.ReadySubSolvers)
	}

	_, tsMono := newTestServer(t, Config{NoDecompose: true})
	mono, _ := postEnumerate(t, tsMono, body)
	if mono.Solver.Atoms != 0 {
		t.Fatalf("NoDecompose server reported atoms: %+v", mono.Solver)
	}
	if !dec.Done || !mono.Done {
		t.Fatalf("enumerations not exhausted in one page: dec=%v mono=%v", dec.Done, mono.Done)
	}
	if len(dec.Results) == 0 || len(dec.Results) != len(mono.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(dec.Results), len(mono.Results))
	}
	for i := range dec.Results {
		d, m := dec.Results[i], mono.Results[i]
		if d.Cost != m.Cost || d.Width != m.Width || d.Fill != m.Fill {
			t.Fatalf("rank %d differs: decomposed %+v, monolithic %+v", i, d, m)
		}
	}
	// The aggregated separator/PMC counts must agree across the modes.
	if dec.Solver.MinimalSeparators != mono.Solver.MinimalSeparators || dec.Solver.PMCs != mono.Solver.PMCs {
		t.Fatalf("aggregate counts differ: %+v vs %+v", dec.Solver, mono.Solver)
	}
}
