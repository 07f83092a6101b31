package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advice"
	"repro/internal/algorithms"
	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/lowerbound"
	"repro/internal/store"
	"repro/internal/view"
)

// layerMetrics are the per-layer metrics of a traced run, in print order,
// with their units.
var layerMetrics = []struct{ name, unit string }{
	{"fourshadesd.byte_cache_ratio", "ratio"}, {"fourshadesd.computed_ratio", "ratio"},
	{"fourshadesd.dedup_ratio", "ratio"}, {"fourshadesd.residual_ms", "ms"},
	{"graph.decode_ms", "ms"}, {"graph.content_hash_ms", "ms"}, {"graph.union_ms", "ms"},
	{"engine.hit_ratio", "ratio"}, {"engine.warm_refine_ns", "ns"}, {"engine.sameview_us", "us"},
	{"engine.cold_census_ms", "ms"}, {"engine.levels_per_graph", "level/graph"},
	{"engine.store_hit_ratio", "ratio"}, {"engine.evictions_per_req", "evict/req"},
	{"engine.unions_built", "count"}, {"engine.steps", "count"},
	{"view.step_us", "us"}, {"view.active_fraction", "fraction"},
	{"store.save_us", "us"}, {"store.load_hit_us", "us"}, {"store.saves_per_graph", "save/graph"},
	{"store.bytes_per_req", "B/req"}, {"store.dead_frac", "fraction"},
	{"election.indices_us", "us"}, {"election.verify_sample_s", "s"},
	{"advice.advise_ms", "ms"},
	{"algorithms.verify_jmk_sample_s", "s"}, {"algorithms.run_udk_s", "s"},
	{"construct.build_jmk_s", "s"}, {"construct.build_udk_s", "s"},
	{"lowerbound.fool_path_s", "s"},
	{"core.E1_s", "s"}, {"core.E2_s", "s"}, {"core.E3_s", "s"}, {"core.E4_s", "s"}, {"core.E5_s", "s"},
	{"core.E6_s", "s"}, {"core.E7_s", "s"}, {"core.E8_s", "s"}, {"core.E9_s", "s"}, {"core.E10_s", "s"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cycles", "count"},
}

// defaultSource names the workload a metric measured on several workloads
// is taken from when the traced workload is not one of them.
var defaultSource = map[string]string{
	"engine.evictions_per_req": "serve-cold",
	"runtime.alloc_mb":         "reproduce",
	"runtime.gc_cycles":        "reproduce",
}

// traceRun is the per-layer run (--trace 1). It traces all three workloads,
// so every layer is measured on traffic that exercises it; the named
// workload's serve phases get the full --seconds, the other's a short
// share.
//
//   - Serve workloads: the same passes on two fresh daemons in turn, one
//     untraced and one traced (a client span per request, /v1/stats scraped
//     before and after); then the traced requests replayed in-process at the
//     same concurrency, each public call a span under its request. The
//     difference between the two daemons' figures is the tracing overhead.
//   - reproduce: one untraced suite, core.RunExperiment per experiment, and
//     direct calls at the points of E5, E8 and E9.
//
// A metric measured on several workloads is taken from the named workload.
func traceRun(cfg *config, rep *report) error {
	tr := newTracer()
	budget := time.Duration(cfg.seconds) * time.Second
	phaseLen := func(w string) time.Duration {
		if w == cfg.workload {
			return budget / 2
		}
		return min(budget/2, 3*time.Second)
	}
	parts := map[string]map[string]float64{}
	var err error
	if parts["serve-warm"], err = traceWarm(cfg, rep, tr, phaseLen("serve-warm")); err != nil {
		return fmt.Errorf("serve-warm: %w", err)
	}
	if parts["serve-cold"], err = traceCold(cfg, rep, tr, phaseLen("serve-cold")); err != nil {
		return fmt.Errorf("serve-cold: %w", err)
	}
	if parts["reproduce"], err = traceReproduce(cfg, rep, tr); err != nil {
		return fmt.Errorf("reproduce: %w", err)
	}
	for _, m := range layerMetrics {
		sources := []string{cfg.workload, defaultSource[m.name], "serve-warm", "serve-cold", "reproduce"}
		found := false
		for _, src := range sources {
			if v, ok := parts[src][m.name]; ok {
				rep.metric(m.name, v, m.unit, "from "+src)
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("no traced part measured %s", m.name)
		}
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("%d spans written to %s", len(tr.spans), path)
	return nil
}

// subReport starts the report of a traced run's sub-phase under a printed
// label; fold then adds its checks and host record to the run's.
func subReport(rep *report, label string) *report {
	fmt.Fprintf(rep.w, "## %s\n", label)
	return newReport(rep.w)
}

func fold(rep, sub *report) {
	rep.attempted += sub.attempted
	rep.failed += sub.failed
	rep.host.Steal = append(rep.host.Steal, sub.host.Steal...)
	for prog, flags := range sub.host.Flags {
		rep.host.Flags[prog] = flags
	}
}

// overhead prints traced minus untraced for every end-to-end metric.
func overhead(rep *report, workload string, untraced, traced *report) {
	names := make([]string, 0, len(untraced.metrics))
	for name := range untraced.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		u, t := untraced.metrics[name], traced.metrics[name]
		rep.info("overhead."+workload+"."+name, t.Value-u.Value, u.Unit,
			fmt.Sprintf("traced %.6g - untraced %.6g", t.Value, u.Value))
	}
}

// tracedPhases runs a serve workload on two fresh daemons, one untraced
// and one traced, pass by pass in turn over the same passes, printing both
// and the tracing overhead. It returns the traced phase.
func tracedPhases(rep *report, workload string, tr *tracer, length time.Duration,
	start func(sub *report) (*serveRun, error)) (*phase, error) {
	subU, subT := subReport(rep, workload+" untraced"), newReport(rep.w)
	u, err := start(subU)
	if err != nil {
		return nil, err
	}
	t, err := start(subT)
	if err != nil {
		u.close()
		return nil, err
	}
	err = runPasses([]*serveRun{u, t}, []*tracer{nil, tr}, length)
	ph0, err0 := u.close()
	ph1, err1 := t.close()
	if err = errors.Join(err, err0, err1); err != nil {
		return nil, err
	}
	ph0.e2e(subU)
	fmt.Fprintf(rep.w, "## %s traced\n", workload)
	ph1.e2e(subT)
	fold(rep, subU)
	fold(rep, subT)
	overhead(rep, workload, subU, subT)
	return ph1, nil
}

// daemonRatios are the /v1/stats deltas of a traced phase.
func daemonRatios(ph *phase, out map[string]float64) {
	a, b := ph.before, ph.after
	reqs := float64(b.Daemon.Requests - a.Daemon.Requests)
	out["fourshadesd.byte_cache_ratio"] = ratio(float64(b.Daemon.Cached-a.Daemon.Cached), reqs)
	out["fourshadesd.computed_ratio"] = ratio(float64(b.Daemon.Computed-a.Daemon.Computed), reqs)
	out["fourshadesd.dedup_ratio"] = ratio(float64(b.Daemon.Deduped-a.Daemon.Deduped), reqs)
	hits, misses := float64(b.Engine.Hits-a.Engine.Hits), float64(b.Engine.Misses-a.Engine.Misses)
	out["engine.hit_ratio"] = ratio(hits, hits+misses)
	out["engine.evictions_per_req"] = ratio(float64(b.Engine.Evictions-a.Engine.Evictions), reqs)
	out["engine.unions_built"] = float64(b.Engine.UnionsBuilt)
}

// replay answers units in-process over conns workers, each request a root
// span named label/kind with its calls as children. newAnswerer gives each
// worker its answerer bound to the worker's scope.
func replay(units [][]*request, conns int, tr *tracer, label string, newAnswerer func(sc *scope) *answerer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &scope{tr: tr}
			ans := newAnswerer(sc)
			for {
				u := int(next.Add(1) - 1)
				if u >= len(units) {
					return
				}
				for _, r := range units[u] {
					sc.call("request", label+"/"+r.kind, func() { ans.answer(r) })
				}
			}
		}()
	}
	wg.Wait()
}

// underRequests returns the replay spans of one workload: its request
// roots (named label/kind) and every span below them.
func underRequests(spans []span, label string) []span {
	return descendants(spans, func(root span) bool {
		return root.Layer == "request" && strings.HasPrefix(root.Name, label+"/")
	})
}

// reconcile prints the replay's per-layer self time per request beside the
// client mean latency; the daemon's own share (HTTP, dispatch, JSON) is the
// residual, and the replay's bookkeeping between calls is unexplained.
func reconcile(rep *report, label string, spans []span, client time.Duration) (residual time.Duration) {
	self := selfTimes(spans)
	var replayTotal time.Duration
	n := 0
	for _, s := range spans {
		if s.Parent == 0 {
			replayTotal += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	replayMean := replayTotal / time.Duration(n)
	residual = client - replayMean
	rep.note("reconciliation %s over %d requests: client mean %.4f ms = fourshadesd residual %.4f ms + replay %.4f ms",
		label, n, ms(client), ms(residual), ms(replayMean))
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		per := self[l] / time.Duration(n)
		name := l
		if l == "request" {
			name = "unexplained (replay bookkeeping)"
		}
		rep.note("  %-34s %10.4f ms/request  %5.1f%% of client mean", name, ms(per), 100*ratio(float64(per), float64(client)))
	}
	return residual
}

// runtimeCounters reads the Go runtime's cumulative allocation and GC cycle
// counts for this process.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func runtimeDeltas(out map[string]float64, a0, g0 uint64) {
	a1, g1 := runtimeCounters()
	out["runtime.alloc_mb"] = float64(a1-a0) / (1 << 20)
	out["runtime.gc_cycles"] = float64(g1 - g0)
}

// traceWarm traces serve-warm and times warm engine reads directly.
func traceWarm(cfg *config, rep *report, tr *tracer, length time.Duration) (map[string]float64, error) {
	in, err := buildWarmInputs(cfg.seed, warmStreamLen)
	if err != nil {
		return nil, err
	}
	ph, err := tracedPhases(rep, "serve-warm", tr, length, func(sub *report) (*serveRun, error) {
		return startWarm(cfg, sub, in)
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	daemonRatios(ph, out)

	// in.eng answered every distinct request while the references were
	// checked, so the replay starts from the daemon's warm state.
	var units [][]*request
	for p := 0; p < ph.passes; p++ {
		units = append(units, in.pass()...)
	}
	a0, g0 := runtimeCounters()
	replay(units, cfg.conns, tr, "serve-warm", func(sc *scope) *answerer {
		return &answerer{eng: in.eng, corpora: in.corpora, sc: sc}
	})
	runtimeDeltas(out, a0, g0)
	spans := underRequests(tr.spans, "serve-warm")
	out["fourshadesd.residual_ms"] = ms(reconcile(rep, "serve-warm", spans, ph.clientMean()))
	out["engine.sameview_us"] = float64(meanSpan(spans, "engine.SameViewAcross").Nanoseconds()) / 1e3
	out["election.indices_us"] = float64(meanSpan(spans, "election.Indices").Nanoseconds()) / 1e3

	// Warm Refine at each member's cached stabilisation depth.
	const calls = 2000
	var total time.Duration
	n := 0
	for _, name := range warmCorpora {
		c := in.corpora[name]
		for _, m := range c.Names() {
			g := c.Graph(m)
			d := in.eng.StabilisationDepth(g)
			start := tr.now()
			for i := 0; i < calls; i++ {
				in.eng.Refine(g, d)
			}
			end := tr.now()
			tr.record(0, "engine", "engine.Refine(warm)x2000", start, end)
			total += time.Duration(end - start)
			n += calls
		}
	}
	out["engine.warm_refine_ns"] = float64(total.Nanoseconds()) / float64(n)
	return out, nil
}

// timedStore is the replay's store: the daemon's FileStore, with each Load
// and Save a store span under the call that made it. One per replay worker,
// so the scope it reads is that worker's.
type timedStore struct {
	fs *store.FileStore
	sc *scope
}

func (s *timedStore) Load(key string) (engine.StoredRefinement, bool, error) {
	start := s.sc.tr.now()
	rec, ok, err := s.fs.Load(key)
	name := "store.LoadMiss"
	if ok {
		name = "store.LoadHit"
	}
	s.sc.tr.record(s.sc.cur, "store", name, start, s.sc.tr.now())
	return rec, ok, err
}

func (s *timedStore) Save(key string, rec engine.StoredRefinement) error {
	start := s.sc.tr.now()
	err := s.fs.Save(key, rec)
	s.sc.tr.record(s.sc.cur, "store", "store.Save", start, s.sc.tr.now())
	return err
}

// traceCold traces serve-cold and times graph, view, advice and store
// calls directly on its graphs.
func traceCold(cfg *config, rep *report, tr *tracer, length time.Duration) (map[string]float64, error) {
	ph, err := tracedPhases(rep, "serve-cold", tr, length, func(sub *report) (*serveRun, error) {
		return startCold(cfg, sub)
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	daemonRatios(ph, out)
	a, b := ph.before, ph.after
	reqs := float64(b.Daemon.Requests - a.Daemon.Requests)
	inserted := float64(b.Engine.Graphs-a.Engine.Graphs) + float64(b.Engine.Evictions-a.Engine.Evictions) +
		float64(b.Engine.Forgotten-a.Engine.Forgotten)
	out["engine.levels_per_graph"] = ratio(float64(b.Engine.Steps-a.Engine.Steps), inserted)
	sh, sm := float64(b.Engine.StoreHits-a.Engine.StoreHits), float64(b.Engine.StoreMisses-a.Engine.StoreMisses)
	out["engine.store_hit_ratio"] = ratio(sh, sh+sm)
	if a.Store == nil || b.Store == nil {
		return nil, fmt.Errorf("daemon reported no store section")
	}
	out["store.saves_per_graph"] = ratio(float64(b.Engine.StoreSaves-a.Engine.StoreSaves), float64(b.Store.Records-a.Store.Records))
	out["store.bytes_per_req"] = ratio(float64(b.Store.Bytes-a.Store.Bytes), reqs)
	out["store.dead_frac"] = ratio(float64(b.Store.DeadBytes), float64(b.Store.Bytes))

	// Replay the same passes against a FileStore of the benchmark's own, as
	// the daemon attaches one. Each worker has its own engine so store
	// spans land under the worker's call; inline graphs never share engine
	// entries across requests anyway, only store records.
	dir, err := os.MkdirTemp(cfg.work, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fs, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	var passes []*coldPass
	var units [][]*request
	for p := 0; p < ph.passes; p++ {
		cp := buildColdPass(cfg.seed, p, coldSessions)
		passes = append(passes, cp)
		units = append(units, cp.sessions...)
	}
	a0, g0 := runtimeCounters()
	replay(units, cfg.conns, tr, "serve-cold", func(sc *scope) *answerer {
		eng := engine.New(0)
		eng.SetStore(&timedStore{fs: fs, sc: sc})
		return &answerer{eng: eng, sc: sc}
	})
	runtimeDeltas(out, a0, g0)
	spans := underRequests(tr.spans, "serve-cold")
	out["fourshadesd.residual_ms"] = ms(reconcile(rep, "serve-cold", spans, ph.clientMean()))
	out["graph.decode_ms"] = ms(meanSpan(spans, "graph.UnmarshalJSON"))
	out["engine.cold_census_ms"] = ms(meanSpan(spans, "engine.census"))
	out["store.save_us"] = float64(meanSpan(spans, "store.Save").Nanoseconds()) / 1e3
	out["store.load_hit_us"] = float64(meanSpan(spans, "store.LoadHit").Nanoseconds()) / 1e3

	// Direct calls on the replayed graphs.
	sc := &scope{tr: tr}
	for _, cp := range passes {
		for i, g := range cp.graphs {
			sc.call("graph", "graph.ContentHash", func() { graph.ContentHash(g) })
			if i > 0 {
				sc.call("graph", "graph.DisjointUnion", func() { graph.DisjointUnion(g, cp.graphs[i-1]) })
			}
		}
	}
	out["graph.content_hash_ms"] = ms(meanSpan(tr.spans, "graph.ContentHash"))
	out["graph.union_ms"] = ms(meanSpan(tr.spans, "graph.DisjointUnion"))
	out["view.step_us"], out["view.active_fraction"] = viewSteps(sc, passes[0].graphs)
	oracle := advice.ViewOracle{Engine: engine.New(0)}
	for _, g := range passes[0].graphs {
		sc.call("advice", "advice.ViewOracle.Advise", func() { oracle.Advise(g) })
	}
	out["advice.advise_ms"] = ms(meanSpan(tr.spans, "advice.ViewOracle.Advise"))
	return out, nil
}

// viewSteps refines each graph level by level with the view primitives the
// engine uses, returning the mean Step time in µs and the mean share of
// nodes still in splittable classes when a Step starts.
func viewSteps(sc *scope, graphs []*graph.Graph) (stepUS, active float64) {
	var activeSum float64
	steps := 0
	for _, g := range graphs {
		var classes []int
		var num int
		var part *view.LevelPartition
		sc.call("view", "view.DegreeClasses", func() { classes, num = view.DegreeClasses(g) })
		sc.call("view", "view.NewLevelPartition", func() { part = view.NewLevelPartition(classes, num) })
		sigs := view.GetPairSigs(g)
		for {
			activeSum += float64(part.ActiveNodes()) / float64(g.N())
			steps++
			var next []int
			var nextNum int
			sc.call("view", "view.LevelPartition.Step", func() { next, nextNum = part.Step(g, sigs, classes, 1) })
			if nextNum == num {
				break
			}
			classes, num = next, nextNum
		}
		view.PutPairSigs(sigs)
	}
	total, n := spanStats(sc.tr.spans, "view.LevelPartition.Step")
	return float64(total.Nanoseconds()) / 1e3 / float64(max(n, 1)), activeSum / float64(max(steps, 1))
}

// traceReproduce runs one untraced suite, then each experiment in-process
// as a core span, then direct calls at the experiments' grid points.
func traceReproduce(cfg *config, rep *report, tr *tracer) (map[string]float64, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	seed := suiteSeed(cfg.seed, len(digests))
	sub := subReport(rep, "reproduce untraced")
	if err := reproduce(cfg, sub, 0); err != nil {
		return nil, err
	}
	fold(rep, sub)
	out := map[string]float64{}
	a0, g0 := runtimeCounters()
	eng := engine.New(0)
	sc := &scope{tr: tr}
	var sum float64
	for _, d := range core.Experiments() {
		if !d.Suite {
			continue
		}
		var table *core.Table
		start := time.Now()
		sc.call("core", "core."+d.Name, func() {
			table, err = core.RunExperiment(d.Name, core.Options{Seed: seed, Engine: eng, Parallelism: cfg.conns})
		})
		secs := time.Since(start).Seconds()
		out["core."+d.Name+"_s"] = secs
		sum += secs
		rep.attempted++
		if err != nil || digest(strings.TrimRight(table.Render(), "\n ")) != digests[seed][d.Name] {
			rep.failed++
			rep.note("%s: table differs from its digest (err %v)", d.Name, err)
		}
	}
	out["engine.steps"] = float64(eng.Stats().Steps)
	rep.note("reconciliation reproduce: experiments one at a time sum to %.3f s against untraced suite_s %.3f s, which runs them concurrently in one pool",
		sum, sub.metrics["suite_s"].Value)
	rep.info("overhead.reproduce.suite_s", sum-sub.metrics["suite_s"].Value, "s", "sequential traced experiments minus untraced suite")

	if err := directCalls(seed, eng, sc, rep); err != nil {
		return nil, err
	}
	for name, span := range map[string]string{
		"construct.build_udk_s":          "construct.BuildUdk",
		"algorithms.run_udk_s":           "algorithms.RunUdkPortElection",
		"election.verify_sample_s":       "election.VerifySample",
		"construct.build_jmk_s":          "construct.BuildJmk",
		"algorithms.verify_jmk_sample_s": "algorithms.VerifyJmkSample",
		"lowerbound.fool_path_s":         "lowerbound.FoolPathElection",
	} {
		total, _ := spanStats(tr.spans, span)
		out[name] = total.Seconds()
	}
	runtimeDeltas(out, a0, g0)
	return out, nil
}

// directCalls makes the layer calls of E5, E8 and E9 at their default
// grid points, drawing σ and Y exactly as the experiments do, and checks
// each verdict.
func directCalls(seed int64, eng *engine.Engine, sc *scope, rep *report) error {
	check := func(what string, ok bool, err error) {
		rep.attempted++
		if err != nil || !ok {
			rep.failed++
			rep.note("%s failed: %v", what, err)
		}
	}
	rng := rand.New(rand.NewSource(seed + 5))
	for _, p := range core.UdkParams {
		delta, k := p.Int("delta"), p.Int("k")
		sigma, err := construct.RandomSigma(delta, k, rng)
		if err != nil {
			return err
		}
		var u *construct.Udk
		sc.call("construct", "construct.BuildUdk", func() { u, err = construct.BuildUdk(delta, k, sigma) })
		if err != nil {
			return err
		}
		var outputs []election.Output
		if p.Int("central") == 1 {
			sc.call("algorithms", "algorithms.UdkPortElectionOutputs", func() {
				_, outputs, err = algorithms.UdkPortElectionOutputs(eng, u)
			})
		} else {
			sc.call("algorithms", "algorithms.RunUdkPortElection", func() {
				_, _, outputs, err = algorithms.RunUdkPortElection(u, local.RunWith(local.Sequential()))
			})
		}
		if err != nil {
			return err
		}
		sample := election.SampleNodes(u.G, 1000, seed)
		sc.call("election", "election.VerifySample", func() { err = election.VerifySample(election.PE, u.G, outputs, sample) })
		check("E5 "+p.Name+" VerifySample", true, err)
	}
	for _, p := range core.JmkIndicesParams {
		mu, k := p.Int("mu"), p.Int("k")
		opts := construct.JmkOptions{NumGadgets: p.Int("gadgets")}
		if opts.NumGadgets == 0 {
			yrng := rand.New(rand.NewSource(seed + 8))
			opts.Y = make([]bool, 1<<uint(construct.JmkZ(mu, k)-1))
			for i := range opts.Y {
				opts.Y[i] = yrng.Intn(2) == 1
			}
		}
		var inst *construct.Jmk
		var err error
		sc.call("construct", "construct.BuildJmk", func() { inst, err = construct.BuildJmk(mu, k, opts) })
		if err != nil {
			return err
		}
		sc.call("algorithms", "algorithms.VerifyJmkSample", func() {
			_, err = algorithms.VerifyJmkSample(inst, election.CPPE, 2048, seed)
		})
		check("E8 "+p.Name+" VerifyJmkSample", true, err)
	}
	for _, p := range core.JmkLowerBoundParams {
		if p.Int("materialise") != 1 {
			continue
		}
		mu, k := p.Int("mu"), p.Int("k")
		yrng := rand.New(rand.NewSource(seed + 9))
		yA := make([]bool, 1<<uint(construct.JmkZ(mu, k)-1))
		yB := make([]bool, len(yA))
		for i := range yA {
			yA[i] = yrng.Intn(2) == 1
			yB[i] = yA[i]
		}
		yB[3] = !yB[3]
		var fool *lowerbound.PathFooling
		var err error
		sc.call("lowerbound", "lowerbound.FoolPathElection", func() { fool, err = lowerbound.FoolPathElection(eng, mu, k, yA, yB) })
		check("E9 "+p.Name+" FoolPathElection", err == nil && fool.ViewsEqual && fool.Separated, err)
	}
	return nil
}
