// fourshadesd is the serving layer of the reproduction: a long-running HTTP
// daemon over one shared hot refinement engine, optionally backed by the
// persistent store. Clients submit a graph (or name a registered corpus
// member) and query class censuses, selection-advice sizes, election indices
// and cross-graph view equality; identical in-flight requests are
// single-flighted onto one computation, and the engine's at-most-once
// refinement makes every repeated question a cache hit — warm across process
// restarts when a store directory is configured.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/algorithms"
	"repro/internal/corpus"
	"repro/internal/election"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/store"
)

// flightShards is the shard count of the flight group: enough that
// concurrent requests for distinct keys essentially never contend on a
// deduper mutex. Must be a power of two (the shard index is a hash mask).
const flightShards = 16

// flightCall is one in-flight computation; joiners wait on done and share
// val/err.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// flightGroup deduplicates identical in-flight requests: the first caller
// for a key computes, every concurrent caller with the same key waits for
// and shares that result. Completed calls are forgotten — persistence of
// results is the engine's and the store's job, not the deduper's. The group
// is sharded by key hash, so requests for different keys take different
// mutexes and the deduper never becomes the serving bottleneck it exists to
// remove; identical keys hash to the same shard and still dedupe.
type flightGroup struct {
	shards [flightShards]flightShard
}

type flightShard struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightSeed keys the flight shard hash.
var flightSeed = maphash.MakeSeed()

// shard returns the flight shard of key.
func (g *flightGroup) shard(key string) *flightShard {
	return &g.shards[maphash.String(flightSeed, key)&(flightShards-1)]
}

// errComputePanicked marks a flight computation that panicked. The daemon
// answers it with a 500, not as a client error.
var errComputePanicked = errors.New("computation panicked")

// do runs fn under key, reporting whether the result was shared from another
// caller's in-flight computation. A panicking fn fails the caller and every
// joiner with errComputePanicked and still releases the key: a key left in
// flight would hang every later identical request.
func (g *flightGroup) do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	sh := g.shard(key)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]*flightCall)
	}
	if c, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	sh.m[key] = c
	sh.mu.Unlock()

	c.val, c.err = callContained(fn)

	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// callContained calls fn, turning a panic into an errComputePanicked error
// and logging its stack.
func callContained(fn func() (any, error)) (val any, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("fourshadesd: flight computation panicked: %v\n%s", p, debug.Stack())
			val, err = nil, fmt.Errorf("%w: %v", errComputePanicked, p)
		}
	}()
	return fn()
}

// respCacheMax bounds the byte-level response cache; overflowing clears the
// whole cache (it repopulates from the engine's own cache at warm-hit cost,
// so the penalty of the crude bound is microseconds per entry).
const respCacheMax = 4096

// respEntry is one precomputed response: the encoded JSON bytes, tagged with
// the corpus the answer was derived from so Forget can invalidate precisely.
type respEntry struct {
	tag  string
	data []byte
}

// respCache is the byte-level response cache: for deterministic
// corpus-derived answers (census and advice of registered corpus members)
// the daemon stores the final encoded JSON and serves repeats without
// touching the engine, the JSON encoder, or any lock — a warm corpus answer
// is one lock-free map read plus a write syscall. Entries are invalidated by
// corpus tag when a graph is forgotten (POST /v1/forget).
type respCache struct {
	m     sync.Map // request key -> *respEntry
	count atomic.Int64
}

func (c *respCache) get(key string) ([]byte, bool) {
	if v, ok := c.m.Load(key); ok {
		return v.(*respEntry).data, true
	}
	return nil, false
}

func (c *respCache) put(key, tag string, data []byte) {
	if _, loaded := c.m.Swap(key, &respEntry{tag: tag, data: data}); loaded {
		return
	}
	if c.count.Add(1) > respCacheMax {
		c.m.Clear()
		c.count.Store(0)
	}
}

// invalidate drops every cached response derived from the tagged corpus.
func (c *respCache) invalidate(tag string) {
	c.m.Range(func(k, v any) bool {
		if v.(*respEntry).tag == tag {
			if c.m.CompareAndDelete(k, v) {
				c.count.Add(-1)
			}
		}
		return true
	})
}

// server holds the daemon's shared state: one engine (the hot cache every
// request warms for the next), the optional disk store behind it, and the
// corpus registry with per-name built-corpus caching so a corpus's
// generators run once per process, not once per request.
type server struct {
	eng  *engine.Engine
	st   *store.FileStore // nil when running store-less
	reg  *corpus.Registry
	seed int64

	mu      sync.Mutex
	corpora map[string]*corpus.Corpus

	flight   flightGroup
	resp     respCache
	requests atomic.Int64 // POST queries received
	computed atomic.Int64 // flight computations actually run
	deduped  atomic.Int64 // queries served by joining an in-flight twin
	cached   atomic.Int64 // queries served as precomputed response bytes
}

func newServer(eng *engine.Engine, st *store.FileStore, reg *corpus.Registry, seed int64) *server {
	return &server{eng: eng, st: st, reg: reg, seed: seed, corpora: make(map[string]*corpus.Corpus)}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/corpora", s.handleCorpora)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/census", s.query(s.census))
	mux.HandleFunc("POST /v1/advice", s.query(s.advice))
	mux.HandleFunc("POST /v1/indices", s.query(s.indices))
	mux.HandleFunc("POST /v1/sameview", s.query(s.sameView))
	mux.HandleFunc("POST /v1/forget", s.handleForget)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) handleCorpora(w http.ResponseWriter, r *http.Request) {
	type info struct {
		Name     string `json:"name"`
		Feasible bool   `json:"feasible"`
	}
	names := s.reg.Names()
	sort.Strings(names)
	out := make([]info, 0, len(names))
	for _, n := range names {
		out = append(out, info{Name: n, Feasible: s.reg.Traits(n).Feasible})
	}
	writeJSON(w, http.StatusOK, map[string]any{"corpora": out})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"engine": s.eng.Stats(),
		"daemon": map[string]int64{
			"requests": s.requests.Load(),
			"computed": s.computed.Load(),
			"deduped":  s.deduped.Load(),
			"cached":   s.cached.Load(),
		},
		"cache": s.eng.CacheStats(),
	}
	if s.st != nil {
		resp["store"] = s.st.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// query wraps a computation endpoint with the two warm layers: the byte
// cache (corpus-derived answers served as precomputed JSON, no engine, no
// encoder, no lock), looked up by the raw path and body before anything is
// decoded, and body-keyed single-flight (two byte-identical requests in
// flight at once run the computation once and share the answer). compute
// decodes the body; when its answer may be cached it sets *cacheAs to the
// answer's invalidation tag. The body is bounded — every query here is a
// graph or a name, not a bulk upload.
func (s *server) query(compute func(body []byte, cacheAs *string) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		s.requests.Add(1)
		key := r.URL.Path + "\x00" + string(body)
		if data, ok := s.resp.get(key); ok {
			s.cached.Add(1)
			writeJSONBytes(w, data)
			return
		}
		// Only the request that runs the computation learns the tag; its
		// joiners share the answer and leave caching it to that request.
		var tag string
		val, shared, err := s.flight.do(key, func() (any, error) {
			s.computed.Add(1)
			return compute(body, &tag)
		})
		if shared {
			s.deduped.Add(1)
		}
		if errors.Is(err, errComputePanicked) {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		data, err := json.Marshal(val)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		data = append(data, '\n')
		if tag != "" {
			s.resp.put(key, tag, data)
		}
		writeJSONBytes(w, data)
	}
}

// writeJSONBytes writes an already-encoded JSON response.
func writeJSONBytes(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleForget answers POST /v1/forget: drop every cached refinement of one
// corpus member ({"corpus","name"}) or of a whole corpus ({"corpus"} alone)
// from the engine, and invalidate the precomputed responses derived from
// that corpus. The persistent store is untouched — forgotten graphs
// warm-start from disk on their next query.
func (s *server) handleForget(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req graphRef
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Corpus == "" || req.Graph != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("forget needs a corpus (and optionally a member name)"))
		return
	}
	c, err := s.corpusFor(req.Corpus)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	names := c.Names()
	if req.Name != "" {
		if !c.Has(req.Name) {
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("corpus %q has no graph %q (have %v)", req.Corpus, req.Name, names))
			return
		}
		names = []string{req.Name}
	}
	for _, name := range names {
		s.eng.Forget(c.Graph(name))
	}
	s.resp.invalidate(req.Corpus)
	writeJSON(w, http.StatusOK, map[string]any{"forgotten": len(names)})
}

func readBody(r *http.Request) ([]byte, error) {
	const maxBody = 16 << 20
	return io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody))
}

// graphRef names a graph: a registered corpus member ({"corpus","name"}) or
// an inline port-numbered graph ({"graph": {"n":…, "edges":[…]}}), which
// decoding the request builds and validates.
type graphRef struct {
	Corpus string       `json:"corpus,omitempty"`
	Name   string       `json:"name,omitempty"`
	Graph  *graph.Graph `json:"graph,omitempty"`
}

// cacheTag is the byte-cache tag of a census or advice answer about ref:
// its corpus when the answer derives from a registered corpus alone, and
// "" (uncacheable) otherwise. Corpus-derived answers are pure functions of
// the registered corpus (deterministic generators under the daemon's fixed
// seed), so their bytes stay valid until the corpus's graphs are
// forgotten; inline graphs are tracked by no invalidation tag.
func (ref graphRef) cacheTag() string {
	if ref.Graph != nil {
		return ""
	}
	return ref.Corpus
}

// corpusFor returns the built corpus for name, building it once per process
// with the daemon's seed and the engine's feasibility screen.
func (s *server) corpusFor(name string) (*corpus.Corpus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.corpora[name]; ok {
		return c, nil
	}
	c, err := s.reg.Build(name, s.seed, s.eng.Feasible)
	if err != nil {
		return nil, err
	}
	s.corpora[name] = c
	return c, nil
}

// resolve turns a graphRef into a named graph.
func (s *server) resolve(ref graphRef) (string, *graph.Graph, error) {
	switch {
	case ref.Graph != nil:
		if ref.Corpus != "" || ref.Name != "" {
			return "", nil, fmt.Errorf("give either an inline graph or a corpus member, not both")
		}
		return "inline", ref.Graph, nil
	case ref.Corpus != "":
		c, err := s.corpusFor(ref.Corpus)
		if err != nil {
			return "", nil, err
		}
		if ref.Name == "" {
			return "", nil, fmt.Errorf("corpus member queries need a name (have %v)", c.Names())
		}
		if !c.Has(ref.Name) {
			return "", nil, fmt.Errorf("corpus %q has no graph %q (have %v)", ref.Corpus, ref.Name, c.Names())
		}
		return ref.Name, c.Graph(ref.Name), nil
	default:
		return "", nil, fmt.Errorf("empty graph reference: give graph, or corpus and name")
	}
}

// censusRow is one graph's class census: how the view classes refine with
// depth, whether election is feasible at all, and the smallest depth at
// which some node's view is unique (ψ_S for feasible graphs; -1 when none).
type censusRow struct {
	Name               string `json:"name"`
	Nodes              int    `json:"nodes"`
	StabilisationDepth int    `json:"stabilisation_depth"`
	ClassesAtStable    int    `json:"classes_at_stabilisation"`
	Feasible           bool   `json:"feasible"`
	MinDepthSomeUnique int    `json:"min_depth_some_unique"`
}

func (s *server) censusRowFor(name string, g *graph.Graph) censusRow {
	d := s.eng.StabilisationDepth(g)
	minUnique, _ := s.eng.MinDepthSomeUnique(g)
	return censusRow{
		Name:               name,
		Nodes:              g.N(),
		StabilisationDepth: d,
		ClassesAtStable:    s.eng.NumClassesAt(g, d),
		Feasible:           s.eng.Feasible(g),
		MinDepthSomeUnique: minUnique,
	}
}

// census answers POST /v1/census: the class census of one graph, or of every
// member of a named corpus ({"corpus":"default"} with no member name).
func (s *server) census(body []byte, cacheAs *string) (any, error) {
	var req graphRef
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	*cacheAs = req.cacheTag()
	if req.Corpus != "" && req.Name == "" && req.Graph == nil {
		c, err := s.corpusFor(req.Corpus)
		if err != nil {
			return nil, err
		}
		rows := make([]censusRow, 0, c.Len())
		for _, name := range c.Names() {
			rows = append(rows, s.censusRowFor(name, c.Graph(name)))
		}
		return map[string]any{"rows": rows}, nil
	}
	name, g, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	return map[string]any{"rows": []censusRow{s.censusRowFor(name, g)}}, nil
}

// advice answers POST /v1/advice: the selection-advice size (number of
// selected nodes of the paper's size-optimal advice scheme) for one graph or
// a whole corpus. Infeasible graphs report an error string per row rather
// than failing the request.
func (s *server) advice(body []byte, cacheAs *string) (any, error) {
	type adviceRow struct {
		Name  string `json:"name"`
		Bits  int    `json:"advice_bits,omitempty"`
		Error string `json:"error,omitempty"`
	}
	rowFor := func(name string, g *graph.Graph) adviceRow {
		bits, err := algorithms.SelectionAdviceSize(s.eng, g)
		if err != nil {
			return adviceRow{Name: name, Error: err.Error()}
		}
		return adviceRow{Name: name, Bits: bits}
	}
	var req graphRef
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	*cacheAs = req.cacheTag()
	if req.Corpus != "" && req.Name == "" && req.Graph == nil {
		c, err := s.corpusFor(req.Corpus)
		if err != nil {
			return nil, err
		}
		rows := make([]adviceRow, 0, c.Len())
		for _, name := range c.Names() {
			rows = append(rows, rowFor(name, c.Graph(name)))
		}
		return map[string]any{"rows": rows}, nil
	}
	name, g, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	return map[string]any{"rows": []adviceRow{rowFor(name, g)}}, nil
}

// indices answers POST /v1/indices: the four election indices ψ_S, ψ_PE,
// ψ_PPE, ψ_CPPE of one graph, computed over the shared engine. Optional
// "tasks" restricts which of the four are reported.
func (s *server) indices(body []byte, _ *string) (any, error) {
	var req struct {
		graphRef
		Tasks           []string `json:"tasks,omitempty"`
		MaxPathsPerNode int      `json:"max_paths_per_node,omitempty"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	name, g, err := s.resolve(req.graphRef)
	if err != nil {
		return nil, err
	}
	keep := map[election.Task]bool{}
	for _, t := range req.Tasks {
		task, err := election.ParseTask(t)
		if err != nil {
			return nil, err
		}
		keep[task] = true
	}
	idx, err := election.Indices(g, election.Options{Engine: s.eng, MaxPathsPerNode: req.MaxPathsPerNode})
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for task, v := range idx {
		if len(keep) == 0 || keep[task] {
			out[task.String()] = v
		}
	}
	return map[string]any{"name": name, "indices": out}, nil
}

// sameView answers POST /v1/sameview: whether node v1 of graph a and node v2
// of graph b have equal depth-limited views — cross-graph, via the engine's
// cached disjoint unions.
func (s *server) sameView(body []byte, _ *string) (any, error) {
	var req struct {
		A     graphRef `json:"a"`
		V1    int      `json:"v1"`
		B     graphRef `json:"b"`
		V2    int      `json:"v2"`
		Depth int      `json:"depth"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	_, g1, err := s.resolve(req.A)
	if err != nil {
		return nil, fmt.Errorf("graph a: %w", err)
	}
	_, g2, err := s.resolve(req.B)
	if err != nil {
		return nil, fmt.Errorf("graph b: %w", err)
	}
	if req.Depth < 0 {
		return nil, fmt.Errorf("negative depth %d", req.Depth)
	}
	check := func(g *graph.Graph, v int, which string) error {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("node %d out of range for graph %s (n=%d)", v, which, g.N())
		}
		return nil
	}
	if err := check(g1, req.V1, "a"); err != nil {
		return nil, err
	}
	if err := check(g2, req.V2, "b"); err != nil {
		return nil, err
	}
	return map[string]bool{"same": s.eng.SameViewAcross(g1, req.V1, g2, req.V2, req.Depth)}, nil
}
