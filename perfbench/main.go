// Command perfbench is the repository's benchmark. It drives the daemon
// (cmd/fourshadesd) and the experiment suite (cmd/advicebench), both built
// from the checkout under test, through one of three workloads, checks every
// answer, and prints one line per metric followed by a final JSON result:
//
//	bash perfbench/run.sh --workload serve-warm --seed 3 --seconds 20 --trace 0
//
// Workloads:
//
//   - serve-warm: repeat queries over the registered corpora default, small
//     and hypercube against a store-less daemon — the byte cache, the
//     flight group, warm engine snapshots and the election search over warm
//     tables;
//   - serve-cold: first-seen inline random graphs against a daemon with a
//     store on an empty directory — body decode, cold refinement, engine
//     insert and evict, and store write-through;
//   - reproduce: the full E1–E10 suite as advicebench runs it.
//
// Each workload runs fixed-work passes until --seconds of passes have been
// timed. With --trace 1 the run is instead the per-layer trace: see
// traceRun.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	root     string // checkout root
	bin      string // directory holding the built fourshadesd and advicebench
	work     string // scratch directory inside the checkout
	workload string
	seed     int64
	seconds  int
	trace    bool
	conns    int // closed-loop connections, and the suite's worker budget
}

func (c *config) daemonBin() string { return filepath.Join(c.bin, "fourshadesd") }
func (c *config) suiteBin() string  { return filepath.Join(c.bin, "advicebench") }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostRecord describes where and on what a run was taken; it is printed for
// diagnosis only and never changes how a run is scored.
type hostRecord struct {
	NumCPU     int                 `json:"num_cpu"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	GoVersion  string              `json:"go_version"`
	Commit     string              `json:"commit"`
	Tree       string              `json:"tree_sha256"` // the checkout's Go sources
	Flags      map[string][]string `json:"flags"`       // of the daemon and the suite, as run
	Steal      []float64           `json:"steal_share"` // host steal share of each timed pass
}

// report collects a run's metrics and prints each as it is recorded.
type report struct {
	w         io.Writer
	metrics   map[string]metric
	attempted int64
	failed    int64
	host      hostRecord
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]metric{}, host: hostRecord{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Flags: map[string][]string{},
	}}
}

// metric records a reported metric and prints it with its sample detail.
func (r *report) metric(name string, v float64, unit, detail string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.info(name, v, unit, detail)
}

// info prints a value that is not part of the JSON result.
func (r *report) info(name string, v float64, unit, detail string) {
	fmt.Fprintf(r.w, "%-40s %14.6g %-10s %s\n", name, v, unit, detail)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "# "+format+"\n", args...)
}

func (r *report) result() *result {
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

var workloads = []string{"serve-warm", "serve-cold", "reproduce"}

// run is main with injectable streams: 0 with a JSON result as the last
// line of stdout, non-zero with no result when the run could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	cfg := &config{}
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fl.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fl.IntVar(&cfg.seconds, "seconds", 10, "timed seconds of passes")
	trace := fl.Int("trace", 0, "1 = per-layer traced run instead of the end-to-end run")
	fl.StringVar(&cfg.root, "root", ".", "checkout root")
	fl.StringVar(&cfg.bin, "bin", "", "directory holding the built fourshadesd and advicebench")
	digests := fl.Int("write-digests", 0, "print the table digests of suite seeds 1..N and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	cfg.conns = runtime.NumCPU()
	if *digests > 0 {
		data, err := writeDigests(cfg.suiteBin(), *digests, cfg.conns)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds < 1 || (*trace != 0 && *trace != 1) || cfg.bin == "" {
		fmt.Fprintf(stderr, "perfbench: need -bin, -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	cfg.work = filepath.Join(cfg.root, ".bench_build", "work")
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep := newReport(stdout)
	rep.host.Commit, rep.host.Tree = sourceIdentity(cfg.root)
	fmt.Fprintf(stdout, "# perfbench %s seed %d, %ds, trace %d\n", cfg.workload, cfg.seed, cfg.seconds, *trace)
	var err error
	if cfg.trace {
		err = traceRun(cfg, rep)
	} else {
		err = endToEnd(cfg, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	host, _ := json.Marshal(rep.host)
	fmt.Fprintf(stdout, "host %s\n", host)
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// endToEnd runs a workload untraced and records its end-to-end metrics.
func endToEnd(cfg *config, rep *report) error {
	budget := time.Duration(cfg.seconds) * time.Second
	switch cfg.workload {
	case "serve-warm":
		in, err := buildWarmInputs(cfg.seed, warmStreamLen)
		if err != nil {
			return err
		}
		printWarmProps(rep, in)
		r, err := startWarm(cfg, rep, in)
		if err != nil {
			return err
		}
		ph, err := serveOnce(r, budget)
		if err != nil {
			return err
		}
		ph.e2e(rep)
	case "serve-cold":
		r, err := startCold(cfg, rep)
		if err != nil {
			return err
		}
		ph, err := serveOnce(r, budget)
		if err != nil {
			return err
		}
		ph.e2e(rep)
	default:
		return reproduce(cfg, rep, budget)
	}
	return nil
}

// printWarmProps reports serve-warm's working set against the daemon's
// cache bounds: the engine's 128 entries (graphs and union graphs alike) and
// the byte cache's 4096 responses.
func printWarmProps(rep *report, in *warmInputs) {
	cacheable := 0
	for _, r := range in.distinct {
		if r.kind == kindCensus || r.kind == kindAdvice || r.kind == kindCorpus {
			cacheable++
		}
	}
	rep.note("input: working set %d graphs + %d union pairs = %d engine entries (bound 128), %d byte-cache responses (bound 4096), %d distinct requests",
		in.members, in.unions, in.members+in.unions, cacheable, len(in.distinct))
}

// sourceIdentity names the code under test: the git commit when the
// checkout is a repository, and always a digest of its Go sources.
func sourceIdentity(root string) (commit, tree string) {
	commit = "none (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return commit, hex.EncodeToString(h.Sum(nil))
}
