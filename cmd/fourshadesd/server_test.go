package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/store"
)

func newTestServer(t testing.TB, dir string) (*server, *httptest.Server) {
	t.Helper()
	eng := engine.New(1)
	var st *store.FileStore
	if dir != "" {
		var err error
		st, err = store.Open(dir)
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		t.Cleanup(func() { st.Close() })
		eng.SetStore(st)
	}
	srv := newServer(eng, st, corpus.Corpora, 1)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// testClient bounds every request a test makes, so a request the daemon
// never answers fails its test instead of hanging it.
var testClient = &http.Client{Timeout: 10 * time.Second}

func postJSON(t testing.TB, ts *httptest.Server, path, body string, out any) *http.Response {
	t.Helper()
	resp, err := testClient.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", path, err)
		}
	}
	return resp
}

// ringJSON is an inline triangle in the wire format (n + port-numbered
// edges), with consistently oriented ports (0 = next, 1 = previous) so the
// graph is fully symmetric: every node sees the same view at every depth.
const ringJSON = `{"n":3,"edges":[{"u":0,"pu":0,"v":1,"pv":1},{"u":1,"pu":0,"v":2,"pv":1},{"u":2,"pu":0,"v":0,"pv":1}]}`

// TestDaemonSmoke drives every endpoint once over the default corpus and an
// inline graph: the client-visible smoke test of the serving surface.
func TestDaemonSmoke(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v (status %v)", err, resp.Status)
	}
	resp.Body.Close()

	var corpora struct {
		Corpora []struct {
			Name     string `json:"name"`
			Feasible bool   `json:"feasible"`
		} `json:"corpora"`
	}
	resp, err = http.Get(ts.URL + "/v1/corpora")
	if err != nil {
		t.Fatalf("GET /v1/corpora: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&corpora); err != nil {
		t.Fatalf("decoding corpora: %v", err)
	}
	resp.Body.Close()
	foundDefault := false
	for _, c := range corpora.Corpora {
		if c.Name == "default" {
			foundDefault = true
			if !c.Feasible {
				t.Error("default corpus not marked feasible")
			}
		}
	}
	if !foundDefault {
		t.Fatalf("corpus listing %v missing default", corpora.Corpora)
	}

	// Census over the whole default corpus.
	var census struct {
		Rows []censusRow `json:"rows"`
	}
	if resp := postJSON(t, ts, "/v1/census", `{"corpus":"default"}`, &census); resp.StatusCode != http.StatusOK {
		t.Fatalf("census status %v", resp.Status)
	}
	if len(census.Rows) == 0 {
		t.Fatal("census over default corpus returned no rows")
	}
	for _, row := range census.Rows {
		if row.Nodes <= 0 || row.StabilisationDepth < 0 {
			t.Errorf("census row %+v has impossible shape", row)
		}
		if !row.Feasible {
			t.Errorf("default corpus member %s reported infeasible", row.Name)
		}
	}

	// Census of an inline graph: the triangle is vertex-transitive, hence
	// infeasible with one class.
	census.Rows = nil
	postJSON(t, ts, "/v1/census", fmt.Sprintf(`{"graph":%s}`, ringJSON), &census)
	if len(census.Rows) != 1 {
		t.Fatalf("inline census returned %d rows", len(census.Rows))
	}
	if row := census.Rows[0]; row.Feasible || row.ClassesAtStable != 1 || row.MinDepthSomeUnique != -1 {
		t.Errorf("triangle census %+v, want infeasible single-class", row)
	}

	// Advice sizes over a feasible member and the infeasible inline graph.
	var advice struct {
		Rows []struct {
			Name  string `json:"name"`
			Bits  int    `json:"advice_bits"`
			Error string `json:"error"`
		} `json:"rows"`
	}
	postJSON(t, ts, "/v1/advice", `{"corpus":"default","name":"path-8"}`, &advice)
	if len(advice.Rows) != 1 || advice.Rows[0].Error != "" || advice.Rows[0].Bits <= 0 {
		t.Errorf("advice for path-8: %+v", advice.Rows)
	}
	advice.Rows = nil
	postJSON(t, ts, "/v1/advice", fmt.Sprintf(`{"graph":%s}`, ringJSON), &advice)
	if len(advice.Rows) != 1 || advice.Rows[0].Error == "" {
		t.Errorf("advice for infeasible triangle: %+v, want per-row error", advice.Rows)
	}

	// Election indices of a corpus member; ψ is monotone S ≤ PE ≤ PPE ≤ CPPE.
	var idx struct {
		Indices map[string]int `json:"indices"`
	}
	postJSON(t, ts, "/v1/indices", `{"corpus":"default","name":"path-8"}`, &idx)
	if len(idx.Indices) != 4 {
		t.Fatalf("indices = %v, want all four tasks", idx.Indices)
	}
	if !(idx.Indices["S"] <= idx.Indices["PE"] && idx.Indices["PE"] <= idx.Indices["PPE"] && idx.Indices["PPE"] <= idx.Indices["CPPE"]) {
		t.Errorf("indices %v violate S ≤ PE ≤ PPE ≤ CPPE", idx.Indices)
	}

	// Cross-graph view equality: path-8 endpoints vs an inline triangle
	// node disagree already at depth 0 (degree 1 vs 2); two symmetric
	// triangle corners agree at every depth.
	var sv struct {
		Same bool `json:"same"`
	}
	postJSON(t, ts, "/v1/sameview", fmt.Sprintf(`{"a":{"corpus":"default","name":"path-8"},"v1":0,"b":{"graph":%s},"v2":0,"depth":2}`, ringJSON), &sv)
	if sv.Same {
		t.Error("path endpoint and triangle corner report equal views")
	}
	postJSON(t, ts, "/v1/sameview", fmt.Sprintf(`{"a":{"graph":%s},"v1":0,"b":{"graph":%s},"v2":1,"depth":3}`, ringJSON, ringJSON), &sv)
	if !sv.Same {
		t.Error("symmetric triangle corners report distinct views")
	}

	// Stats reflect the traffic and the attached store.
	var stats struct {
		Engine engine.Stats   `json:"engine"`
		Store  *store.Stats   `json:"store"`
		Daemon map[string]int `json:"daemon"`
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	resp.Body.Close()
	if stats.Engine.Steps == 0 {
		t.Error("stats report zero refinement steps after a census")
	}
	if stats.Store == nil || stats.Store.Records == 0 {
		t.Errorf("store stats %+v, want persisted records", stats.Store)
	}
	if stats.Daemon["requests"] == 0 || stats.Daemon["computed"] == 0 {
		t.Errorf("daemon counters %v, want traffic recorded", stats.Daemon)
	}
}

// TestDaemonBadRequests: malformed bodies and unknown names are client
// errors with a JSON error field, never 500s or crashes. Each request is
// sent twice: a failure must not leave its flight key behind to hang the
// identical retry.
func TestDaemonBadRequests(t *testing.T) {
	_, ts := newTestServer(t, "")
	cases := []struct {
		path, body string
	}{
		{"/v1/census", `{`},
		{"/v1/census", `{"corpus":"no-such-corpus"}`},
		{"/v1/census", `{"corpus":"default","name":"no-such-graph"}`},
		{"/v1/census", `{}`},
		{"/v1/census", `{"graph":{"n":2,"edges":[{"u":0,"pu":0,"v":0,"pv":0}]}}`},
		{"/v1/census", `{"graph":{"n":-1,"edges":[]}}`},
		{"/v1/census", `{"graph":{"n":1000000000,"edges":[]}}`},
		{"/v1/census", `{"graph":null}`},
		{"/v1/census", fmt.Sprintf(`{"corpus":"default","name":"path-8","graph":%s}`, ringJSON)},
		{"/v1/sameview", fmt.Sprintf(`{"a":{"graph":%s},"v1":99,"b":{"graph":%s},"v2":0,"depth":1}`, ringJSON, ringJSON)},
		{"/v1/indices", fmt.Sprintf(`{"graph":%s,"tasks":["XYZ"]}`, ringJSON)},
	}
	for _, c := range cases {
		for attempt := 1; attempt <= 2; attempt++ {
			var out struct {
				Error string `json:"error"`
			}
			resp := postJSON(t, ts, c.path, c.body, &out)
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("POST %s %q (attempt %d): status %v, want a 4xx", c.path, c.body, attempt, resp.Status)
			}
			if out.Error == "" {
				t.Errorf("POST %s %q (attempt %d): no error field in response", c.path, c.body, attempt)
			}
		}
	}
}

// TestDaemonComputePanic: a computation that panics is answered with a
// 500 carrying an error, and an identical retry runs afresh instead of
// waiting forever on the abandoned flight.
func TestDaemonComputePanic(t *testing.T) {
	srv, _ := newTestServer(t, "")
	ts := httptest.NewServer(srv.query(func([]byte, *string) (any, error) { panic("boom") }))
	defer ts.Close()
	for attempt := 1; attempt <= 2; attempt++ {
		var out struct {
			Error string `json:"error"`
		}
		resp := postJSON(t, ts, "/", `{}`, &out)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(out.Error, "boom") {
			t.Errorf("attempt %d: status %v, error %q; want 500 naming the panic", attempt, resp.Status, out.Error)
		}
	}
	if got := srv.computed.Load(); got != 2 {
		t.Errorf("computed=%d, want 2: the retry must run afresh", got)
	}
}

// TestSingleFlightDedup is the concurrency half of the store satellite test:
// N identical concurrent requests must run the computation once — the rest
// join the in-flight call and share its answer. To make the overlap
// deterministic (timing-based overlap is unreliable on small machines), the
// test plays the in-flight computation itself: it occupies the flight slot
// for the request key before any request arrives, posts N identical
// requests — every one of them must join that in-flight call rather than
// compute — and then completes the call, releasing all N with the shared
// answer. Run under -race.
func TestSingleFlightDedup(t *testing.T) {
	srv, ts := newTestServer(t, "")
	const n = 16
	body := `{"corpus":"default","name":"path-8"}`
	key := "/v1/census\x00" + body

	inflight := &flightCall{done: make(chan struct{})}
	sh := srv.flight.shard(key)
	sh.mu.Lock()
	sh.m = map[string]*flightCall{key: inflight}
	sh.mu.Unlock()

	sentinel := censusRow{Name: "shared-sentinel", Nodes: 8}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/census", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out struct {
				Rows []censusRow `json:"rows"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if len(out.Rows) != 1 || out.Rows[0] != sentinel {
				errs <- fmt.Errorf("request did not share the in-flight answer: %+v", out.Rows)
			}
		}()
	}
	// Wait until all N requests are counted (each increments before joining
	// the flight), then complete the in-flight call they are waiting on.
	for srv.requests.Load() < n {
		runtime.Gosched()
	}
	inflight.val = map[string]any{"rows": []censusRow{sentinel}}
	close(inflight.done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if computed, deduped := srv.computed.Load(), srv.deduped.Load(); computed != 0 || deduped != n {
		t.Errorf("computed=%d deduped=%d, want 0 and %d: every request must join the in-flight call", computed, deduped, n)
	}
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// TestFlightGroupSharding pins the sharded deduper's two obligations: the
// same key always maps to the same shard (identical requests still dedupe —
// the property TestSingleFlightDedup exercises end to end), and distinct
// keys actually spread across shards (the contention the sharding exists to
// remove).
func TestFlightGroupSharding(t *testing.T) {
	var g flightGroup
	distinct := map[*flightShard]bool{}
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("/v1/census\x00{\"corpus\":\"default\",\"name\":\"g%d\"}", i)
		if g.shard(key) != g.shard(key) {
			t.Fatalf("key %q maps to different shards on repeat calls", key)
		}
		distinct[g.shard(key)] = true
	}
	if len(distinct) < flightShards/2 {
		t.Errorf("256 distinct keys landed on %d shards, want a spread over most of %d", len(distinct), flightShards)
	}
	// Concurrent identical keys on the sharded group still collapse to one
	// computation. The test plays the in-flight computation itself, as
	// TestSingleFlightDedup does, and keeps it registered until every
	// joiner has returned: a real leader can finish before a slow joiner
	// looks its key up, and that joiner would then compute afresh.
	const key = "same-key"
	inflight := &flightCall{done: make(chan struct{}), val: "first"}
	sh := g.shard(key)
	sh.mu.Lock()
	sh.m = map[string]*flightCall{key: inflight}
	sh.mu.Unlock()
	var joined sync.WaitGroup
	shared := make([]bool, 8)
	for i := range shared {
		joined.Add(1)
		go func(i int) {
			defer joined.Done()
			v, wasShared, err := g.do(key, func() (any, error) { return "second", nil })
			shared[i] = wasShared && v == "first" && err == nil
		}(i)
	}
	close(inflight.done)
	joined.Wait()
	for i, ok := range shared {
		if !ok {
			t.Errorf("goroutine %d did not share the in-flight result", i)
		}
	}
}

// TestResponseCache: a corpus-member census is served from the byte cache on
// repeat (identical bytes, no recomputation), inline-graph requests are
// never cached, and POST /v1/forget invalidates the corpus's cached bytes
// along with the engine's refinements.
func TestResponseCache(t *testing.T) {
	srv, ts := newTestServer(t, "")
	body := `{"corpus":"default","name":"path-8"}`

	get := func() ([]byte, int64) {
		resp, err := http.Post(ts.URL+"/v1/census", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data, srv.cached.Load()
	}
	first, cached0 := get()
	if cached0 != 0 {
		t.Fatalf("first request served from byte cache (cached=%d)", cached0)
	}
	second, cached1 := get()
	if cached1 != 1 {
		t.Fatalf("repeat request not served from byte cache (cached=%d)", cached1)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached bytes differ from computed response:\n%s\n%s", first, second)
	}

	// Inline graphs bypass the cache entirely.
	inline := fmt.Sprintf(`{"graph":%s}`, ringJSON)
	postJSON(t, ts, "/v1/census", inline, nil)
	postJSON(t, ts, "/v1/census", inline, nil)
	if got := srv.cached.Load(); got != 1 {
		t.Fatalf("inline request hit the byte cache (cached=%d)", got)
	}

	// Forgetting the member drops the engine's tables and the cached bytes:
	// the next request recomputes (cached stays put), and the recomputation
	// reproduces the same response.
	var forgotten struct {
		Forgotten int `json:"forgotten"`
	}
	if resp := postJSON(t, ts, "/v1/forget", body, &forgotten); resp.StatusCode != http.StatusOK || forgotten.Forgotten != 1 {
		t.Fatalf("forget: status %v, forgotten=%d", resp.Status, forgotten.Forgotten)
	}
	if srv.eng.Stats().Forgotten == 0 {
		t.Error("engine reports nothing forgotten after /v1/forget")
	}
	third, cached2 := get()
	if cached2 != 1 {
		t.Fatalf("post-forget request served stale cached bytes (cached=%d)", cached2)
	}
	if !bytes.Equal(first, third) {
		t.Fatalf("post-forget recomputation changed the response:\n%s\n%s", first, third)
	}

	// Bad forget requests are client errors.
	for _, bad := range []string{`{`, `{}`, `{"corpus":"default","name":"no-such"}`, fmt.Sprintf(`{"graph":%s}`, ringJSON)} {
		resp, err := http.Post(ts.URL+"/v1/forget", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("POST /v1/forget %q: status %v, want a 4xx", bad, resp.Status)
		}
	}
}

// TestFlightGroupSemantics: sequential calls recompute (completed calls are
// forgotten), errors are shared, and results reach the caller unchanged.
func TestFlightGroupSemantics(t *testing.T) {
	var g flightGroup
	calls := 0
	for i := 1; i <= 3; i++ {
		v, shared, err := g.do("k", func() (any, error) { calls++; return calls, nil })
		if err != nil || shared || v != i {
			t.Fatalf("call %d: v=%v shared=%v err=%v, want fresh computation", i, v, shared, err)
		}
	}
	wantErr := fmt.Errorf("boom")
	_, _, err := g.do("k", func() (any, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("error not propagated: %v", err)
	}
	if _, _, err := g.do("k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatalf("failed call was not forgotten: %v", err)
	}

	// A panicking computation fails its caller and its joiners with an
	// error, and the key is released: the next call runs fresh instead of
	// waiting forever. The test joins as do's joiners do, by waiting on
	// the in-flight call's done channel.
	release, started := make(chan struct{}), make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.do("k", func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
		leaderErr <- err
	}()
	<-started
	sh := g.shard("k")
	sh.mu.Lock()
	inflight := sh.m["k"]
	sh.mu.Unlock()
	close(release)
	if err := <-leaderErr; !errors.Is(err, errComputePanicked) {
		t.Fatalf("panicking call returned %v, want errComputePanicked", err)
	}
	<-inflight.done
	if !errors.Is(inflight.err, errComputePanicked) {
		t.Fatalf("joiners of a panicking call see %v, want errComputePanicked", inflight.err)
	}
	v, shared, err := g.do("k", func() (any, error) { return "fresh", nil })
	if err != nil || shared || v != "fresh" {
		t.Fatalf("call after a panic: v=%v shared=%v err=%v, want a fresh computation", v, shared, err)
	}
}

// BenchmarkDaemonMixedQuery measures serving throughput on a warm engine
// over a mixed stream (census member, advice, cross-graph sameview, stats) —
// the daemon-side load number the roadmap's serving item asks for.
func BenchmarkDaemonMixedQuery(b *testing.B) {
	_, ts := newTestServer(b, "")
	queries := []struct {
		path, body string
	}{
		{"/v1/census", `{"corpus":"default","name":"path-8"}`},
		{"/v1/advice", `{"corpus":"default","name":"caterpillar-a"}`},
		{"/v1/sameview", `{"a":{"corpus":"default","name":"path-8"},"v1":0,"b":{"corpus":"default","name":"caterpillar-a"},"v2":0,"depth":3}`},
		{"/v1/census", `{"corpus":"default"}`},
	}
	// Warm the engine so the benchmark measures serving, not first-touch
	// refinement.
	for _, q := range queries {
		postJSON(b, ts, q.path, q.body, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		resp, err := http.Post(ts.URL+q.path, "application/json", bytes.NewReader([]byte(q.body)))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.StopTimer()
	qps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/s")
}
