package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// setupRepeats is how many times a serve run starts its daemon; setup_s is
// the median, and the last daemon serves the timed phase.
const setupRepeats = 11

// exchange is one request sent and its reply.
type exchange struct {
	req     *request
	status  int
	body    []byte
	err     error // transport error, non-200 status or wrong answer
	latency time.Duration
}

// drive sends units closed-loop over conns connections: each worker takes
// the next unsent unit and sends its requests one after another, each only
// after the previous reply. check, when set, runs in the worker on each
// reply and may mark it failed; keep retains reply bodies for checks after
// the pass. A traced run records one client span per request.
func drive(d *daemon, units [][]*request, conns int, check func(*exchange), keep bool, tr *tracer) ([][]exchange, time.Duration) {
	out := make([][]exchange, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1) - 1)
				if u >= len(units) {
					return
				}
				exs := make([]exchange, len(units[u]))
				for i, r := range units[u] {
					ex := &exs[i]
					ex.req = r
					var t0 int64
					if tr != nil {
						t0 = tr.now()
					}
					begin := time.Now()
					ex.status, ex.body, ex.err = d.post(r.path, r.body)
					ex.latency = time.Since(begin)
					if tr != nil {
						tr.record(0, "client", r.path, t0, tr.now())
					}
					if ex.err == nil && ex.status != http.StatusOK {
						ex.err = fmt.Errorf("%s: status %d: %s", r.path, ex.status, bytes.TrimSpace(ex.body))
					}
					if ex.err == nil && check != nil {
						check(ex)
					}
					if !keep {
						ex.body = nil
					}
				}
				out[u] = exs
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// passPlan is one fixed-work pass of a serve workload.
type passPlan struct {
	units [][]*request
	check func(*exchange) // per reply, in the worker
	keep  bool            // retain bodies for verify
	// verify runs after the pass, outside the timed window, and marks wrong
	// answers failed.
	verify func([][]exchange)
}

// phase accumulates a serve workload's timed passes. Every per-pass figure
// is reported as its median over the passes, so a burst of host contention
// during a few passes moves no metric.
type phase struct {
	passes    int
	requests  int64
	failed    int64
	wall      []float64 // seconds per pass
	qps       []float64
	p50, p90  []float64 // ms; a failed request counts as a miss
	minN      int       // fewest samples in a pass, and beyond its p90
	minB90    int
	cpuPerReq []float64 // daemon CPU ms per request
	steal     []float64 // host steal share
	okTotal   time.Duration
	okCount   int64       // completed requests, for the client mean latency
	before    daemonStats // /v1/stats before the first pass
	after     daemonStats // and after the last
	errs      []string    // first few failure messages
	setups    []float64   // seconds per daemon start-up
	rss       float64     // daemon VmHWM in MiB after the phase
	input     string      // the inputs' properties, when the workload reports them
}

// serveRun is one daemon under a serve workload and the passes it served.
type serveRun struct {
	d     *daemon
	conns int
	plan  func(p int) *passPlan
	ph    *phase
	done  func() // after the daemon stopped: prints inputs, removes its store
}

// newServeRun scrapes the daemon's counters before the first pass.
func newServeRun(d *daemon, conns int, setups []float64, plan func(p int) *passPlan) (*serveRun, error) {
	r := &serveRun{d: d, conns: conns, plan: plan, done: func() {},
		ph: &phase{minN: math.MaxInt, minB90: math.MaxInt, setups: setups}}
	var err error
	r.ph.before, err = d.stats()
	return r, err
}

// pass runs pass p and records it; a traced pass records a client span per
// request.
func (r *serveRun) pass(p int, tr *tracer) (time.Duration, error) {
	ph, d := r.ph, r.d
	pl := r.plan(p)
	cpu0, err := d.cpuTime()
	if err != nil {
		return 0, err
	}
	s0, t0 := hostSteal()
	exs, wall := drive(d, pl.units, r.conns, pl.check, pl.keep, tr)
	s1, t1 := hostSteal()
	cpu1, err := d.cpuTime()
	if err != nil {
		return 0, err
	}
	if pl.verify != nil {
		pl.verify(exs)
	}
	var lat []time.Duration
	for _, u := range exs {
		for _, ex := range u {
			if ex.err != nil {
				ph.failed++
				lat = append(lat, failedLatency)
				if len(ph.errs) < 3 {
					ph.errs = append(ph.errs, ex.err.Error())
				}
				continue
			}
			lat = append(lat, ex.latency)
			ph.okTotal += ex.latency
			ph.okCount++
		}
	}
	p50, _, err := latencyPercentile(lat, 0.50)
	if err != nil {
		return 0, err
	}
	p90, b90, err := latencyPercentile(lat, 0.90)
	if err != nil {
		return 0, err
	}
	n := len(lat)
	ph.passes++
	ph.requests += int64(n)
	ph.minN, ph.minB90 = min(ph.minN, n), min(ph.minB90, b90)
	ph.wall = append(ph.wall, wall.Seconds())
	ph.qps = append(ph.qps, float64(n)/wall.Seconds())
	ph.p50 = append(ph.p50, ms(p50))
	ph.p90 = append(ph.p90, ms(p90))
	ph.cpuPerReq = append(ph.cpuPerReq, ms(cpu1-cpu0)/float64(n))
	ph.steal = append(ph.steal, stealShare(s0, t0, s1, t1))
	return wall, nil
}

// close scrapes the counters after the last pass, reads the daemon's peak
// RSS and stops it.
func (r *serveRun) close() (*phase, error) {
	defer r.done()
	defer r.d.stop()
	var err error
	if r.ph.after, err = r.d.stats(); err != nil {
		return nil, err
	}
	r.ph.rss, err = r.d.peakRSS()
	return r.ph, err
}

// runPasses runs pass 0, 1, ... on every run in turn, run i traced by
// tracers[i] (nil = untraced), until the first run's passes add up to
// budget. Interleaving runs pass by pass exposes them to the same host
// conditions, so their difference is the tracing overhead, not drift.
func runPasses(runs []*serveRun, tracers []*tracer, budget time.Duration) error {
	var elapsed time.Duration
	for p := 0; p == 0 || elapsed < budget; p++ {
		for i, r := range runs {
			wall, err := r.pass(p, tracers[i])
			if err != nil {
				return err
			}
			if i == 0 {
				elapsed += wall
			}
		}
	}
	return nil
}

// serveOnce runs one untraced serve workload for budget and returns its
// phase.
func serveOnce(r *serveRun, budget time.Duration) (*phase, error) {
	if err := runPasses([]*serveRun{r}, []*tracer{nil}, budget); err != nil {
		r.close()
		return nil, err
	}
	return r.close()
}

// clientMean is the mean latency of the phase's completed requests.
func (ph *phase) clientMean() time.Duration {
	if ph.okCount == 0 {
		return 0
	}
	return ph.okTotal / time.Duration(ph.okCount)
}

// e2e turns a phase into the end-to-end metrics shared by both serve
// workloads, printing each with its sample count.
func (ph *phase) e2e(rep *report) {
	if ph.input != "" {
		rep.note("%s", ph.input)
	}
	perPass := fmt.Sprintf("median of %d passes of >= %d requests, >= %d beyond p90", ph.passes, ph.minN, ph.minB90)
	rep.metric("qps", median(ph.qps), "op/s", fmt.Sprintf("median of %d passes, %d requests", ph.passes, ph.requests))
	rep.metric("p50_ms", median(ph.p50), "ms", perPass)
	rep.metric("p90_ms", median(ph.p90), "ms", perPass)
	rep.metric("cpu_ms_per_op", median(ph.cpuPerReq), "ms", fmt.Sprintf("daemon user+sys per request, median of %d passes", ph.passes))
	rep.metric("suite_s", median(ph.wall), "s", fmt.Sprintf("wall of one fixed pass, median of %d", ph.passes))
	rep.metric("setup_s", median(ph.setups), "s", fmt.Sprintf("median of %d daemon start-ups", len(ph.setups)))
	rep.metric("rss_mb", ph.rss, "MiB", "daemon VmHWM at the end of the run")
	rep.info("error_rate", ratio(float64(ph.failed), float64(ph.requests)), "fraction",
		fmt.Sprintf("%d failed of %d attempted", ph.failed, ph.requests))
	rep.attempted += ph.requests
	rep.failed += ph.failed
	for _, e := range ph.errs {
		rep.note("failure: %s", e)
	}
	rep.host.Steal = append(rep.host.Steal, ph.steal...)
	rep.note("per pass: qps %s", fmtList(ph.qps, "%.0f"))
}

// startSetups starts the daemon setupRepeats times, timing each start-up
// from spawn to /healthz plus whatever ready does, and keeps the last daemon
// running. flagsFor gives the flags of the i-th start.
func startSetups(bin string, conns int, flagsFor func(i int) []string, ready func(*daemon) error) (*daemon, []float64, error) {
	var setups []float64
	for {
		spawn := time.Now()
		d, err := startDaemon(bin, conns, flagsFor(len(setups))...)
		if err != nil {
			return nil, nil, err
		}
		if err := ready(d); err != nil {
			d.stop()
			return nil, nil, err
		}
		setups = append(setups, time.Since(spawn).Seconds())
		if len(setups) == setupRepeats {
			return d, setups, nil
		}
		d.stop()
	}
}

// startWarm starts serve-warm's store-less daemon. setup_s includes the
// three whole-corpus censuses, which build and cold-refine the corpora the
// mix then queries.
func startWarm(cfg *config, rep *report, in *warmInputs) (*serveRun, error) {
	d, setups, err := startSetups(cfg.daemonBin(), cfg.conns, func(int) []string { return nil }, func(d *daemon) error {
		for _, c := range warmCorpora {
			if status, body, err := d.post("/v1/census", []byte(`{"corpus":"`+c+`"}`)); err != nil || status != http.StatusOK {
				return fmt.Errorf("corpus %s census: status %d, %v: %s", c, status, err, body)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.host.Flags["fourshadesd"] = d.flags[2:]

	// One reference reply per distinct request, sent before timing and
	// checked against the in-process answer; every timed reply must repeat
	// its request's verified reference byte for byte.
	refs := make([][]byte, len(in.distinct))
	index := make(map[*request]int, len(in.distinct))
	ans := &answerer{eng: in.eng, corpora: in.corpora}
	for i, r := range in.distinct {
		index[r] = i
		status, body, err := d.post(r.path, r.body)
		want, aerr := ans.answer(r)
		if err != nil || status != http.StatusOK || aerr != nil || !sameAnswer(body, want) {
			rep.note("wrong reference answer: %s %s", r.path, r.body)
			continue
		}
		refs[i] = body
	}
	units := in.pass()
	check := func(ex *exchange) {
		if ref := refs[index[ex.req]]; ref == nil || !bytes.Equal(ex.body, ref) {
			ex.err = fmt.Errorf("%s %s: reply is not the verified reference reply", ex.req.path, ex.req.body)
		}
	}
	r, err := newServeRun(d, cfg.conns, setups, func(int) *passPlan {
		return &passPlan{units: units, check: check}
	})
	if err != nil {
		d.stop()
	}
	return r, err
}

// startCold starts serve-cold's daemon with a store on an empty directory.
// Each pass draws fresh graphs, so every session's graph is first seen by
// the daemon.
func startCold(cfg *config, rep *report) (*serveRun, error) {
	dir, err := os.MkdirTemp(cfg.work, "cold-")
	if err != nil {
		return nil, err
	}
	d, setups, err := startSetups(cfg.daemonBin(), cfg.conns, func(i int) []string {
		return []string{"-store", filepath.Join(dir, "store"+strconv.Itoa(i))}
	}, func(*daemon) error { return nil })
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rep.host.Flags["fourshadesd"] = d.flags[2:]
	props := &coldProps{minNodes: coldMaxNodes}
	r, err := newServeRun(d, cfg.conns, setups, func(p int) *passPlan {
		cp := buildColdPass(cfg.seed, p, coldSessions)
		props.add(cp)
		return &passPlan{units: cp.sessions, keep: true, verify: func(exs [][]exchange) {
			// Recompute every answer in-process, on an engine of its own.
			verifyAnswers(exs, &answerer{eng: engine.New(0), generated: true})
		}}
	})
	if err != nil {
		d.stop()
		os.RemoveAll(dir)
		return nil, err
	}
	r.done = func() {
		r.ph.input = props.String()
		os.RemoveAll(dir)
	}
	return r, nil
}

// verifyAnswers marks every completed exchange whose reply does not decode
// to ans's answer for its request as failed, and returns how many it marked.
func verifyAnswers(exs [][]exchange, ans *answerer) int {
	wrong := 0
	for _, u := range exs {
		for i := range u {
			ex := &u[i]
			if ex.err != nil {
				continue
			}
			if want, err := ans.answer(ex.req); err != nil || !sameAnswer(ex.body, want) {
				ex.err = fmt.Errorf("%s: wrong answer", ex.req.path)
				wrong++
			}
		}
	}
	return wrong
}

// coldProps are the serve-cold input properties reported beside the
// metrics.
type coldProps struct {
	minNodes, maxNodes int
	requests           int
	bodyBytes          int64
	alreadySent        int // requests all of whose graphs were sent before
}

func (c *coldProps) add(p *coldPass) {
	for _, g := range p.graphs {
		c.minNodes = min(c.minNodes, g.N())
		c.maxNodes = max(c.maxNodes, g.N())
	}
	for i, s := range p.sessions {
		for _, r := range s {
			c.requests++
			c.bodyBytes += int64(len(r.body))
		}
		// census: first sight; advice: same graph again; sameview: this
		// graph and the previous session's, unsent for the first session.
		c.alreadySent++
		if i > 0 {
			c.alreadySent++
		}
	}
}

func (c *coldProps) String() string {
	return fmt.Sprintf("input: nodes in [%d, %d], mean body %.1f KB, %.1f%% of requests name only graphs already sent",
		c.minNodes, c.maxNodes, float64(c.bodyBytes)/float64(max(c.requests, 1))/1024,
		100*ratio(float64(c.alreadySent), float64(c.requests)))
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
