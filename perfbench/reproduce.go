package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// digestsJSON holds, per advicebench seed, the SHA-256 of every experiment
// table the full suite prints. Regenerate it with -write-digests after a
// deliberate change to a table.
//
//go:embed digests.json
var digestsJSON []byte

// suiteExperiments is the number of experiments in the E1–E10 suite.
const suiteExperiments = 10

// loadDigests decodes the committed table digests: seed → experiment → hex.
func loadDigests() (map[int64]map[string]string, error) {
	var raw map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &raw); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	out := map[int64]map[string]string{}
	for k, v := range raw {
		seed, err := strconv.ParseInt(k, 10, 64)
		if err != nil || seed < 1 {
			return nil, fmt.Errorf("digests.json: bad seed %q", k)
		}
		out[seed] = v
	}
	for s := int64(1); s <= int64(len(out)); s++ {
		if len(out[s]) != suiteExperiments {
			return nil, fmt.Errorf("digests.json: seeds must be 1..%d with %d tables each", len(out), suiteExperiments)
		}
	}
	return out, nil
}

// suiteSeed maps the benchmark seed onto one of the committed suite seeds
// 1..k, so every benchmark seed has digests to check against.
func suiteSeed(seed int64, k int) int64 {
	m := seed % int64(k)
	if m < 0 {
		m += int64(k)
	}
	return 1 + m
}

// suiteRun is one advicebench process running the full E1–E10 suite.
type suiteRun struct {
	wall   time.Duration // spawn to exit
	suite  time.Duration // E1–E10, as the suite reports it
	cpu    time.Duration // user+sys of the process
	rssMB  float64       // peak RSS of the process
	tables map[string]string
	err    error // the suite exited non-zero
}

// setupRuns is how many times a reproduce run times the suite's set-up.
const setupRuns = 15

// suiteSetup times advicebench from spawn to exit with -list-corpus, which
// does exactly the suite's work before its first experiment — start-up,
// engine construction and the feasibility-screened default-corpus build —
// and then lists the corpus instead of running the experiments. Timing the
// suite itself up to its first experiment is not possible from outside, and
// wall minus suite time would add the exit of a 500 MB process.
func suiteSetup(bin string, seed int64) (time.Duration, error) {
	cmd := exec.Command(bin, "-seed", strconv.FormatInt(seed, 10), "-list-corpus")
	cmd.SysProcAttr = dieWithParent()
	start := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("advicebench -list-corpus: %v: %s", err, out)
	}
	return time.Since(start), nil
}

var completedLine = regexp.MustCompile(`(?m)^completed (\d+) experiments in (\S+)$`)

// runSuite runs advicebench's full suite with the given seed and worker
// budget and parses its tables.
func runSuite(bin string, seed int64, workers int) (*suiteRun, error) {
	cmd := exec.Command(bin, "-seed", strconv.FormatInt(seed, 10), "-parallel", strconv.Itoa(workers))
	cmd.SysProcAttr = dieWithParent()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	runErr := cmd.Run()
	s := &suiteRun{wall: time.Since(start), tables: parseTables(stdout.String())}
	if cmd.ProcessState == nil {
		return nil, fmt.Errorf("running advicebench: %w", runErr)
	}
	if runErr != nil {
		s.err = fmt.Errorf("advicebench: %v: %s", runErr, strings.TrimSpace(stderr.String()))
		return s, nil
	}
	m := completedLine.FindStringSubmatch(stdout.String())
	if m == nil {
		return nil, fmt.Errorf("advicebench printed no completion line")
	}
	var err error
	if s.suite, err = time.ParseDuration(m[2]); err != nil {
		return nil, fmt.Errorf("advicebench completion line: %w", err)
	}
	s.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

var tableStart = regexp.MustCompile(`^(E\d+) — `)

// parseTables splits advicebench's output into its experiment tables, keyed
// by experiment id; each table runs from its title line to the next title or
// the completion line, without trailing blank lines.
func parseTables(out string) map[string]string {
	tables := map[string]string{}
	var id string
	var cur []string
	flush := func() {
		if id != "" {
			tables[id] = strings.TrimRight(strings.Join(cur, "\n"), "\n ")
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if m := tableStart.FindStringSubmatch(line); m != nil {
			flush()
			id, cur = m[1], nil
		} else if strings.HasPrefix(line, "completed ") {
			break
		}
		if id != "" {
			cur = append(cur, line)
		}
	}
	flush()
	return tables
}

func digest(table string) string {
	sum := sha256.Sum256([]byte(table))
	return hex.EncodeToString(sum[:])
}

// wrongTables lists the experiments whose table is missing or differs from
// its committed digest.
func wrongTables(tables map[string]string, want map[string]string) []string {
	var bad []string
	for id, d := range want {
		if t, ok := tables[id]; !ok || digest(t) != d {
			bad = append(bad, id)
		}
	}
	sort.Strings(bad)
	return bad
}

// reproduce runs full suites back to back until their summed wall time
// reaches budget (at least one).
func reproduce(cfg *config, rep *report, budget time.Duration) error {
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	seed := suiteSeed(cfg.seed, len(digests))
	rep.host.Flags["advicebench"] = []string{"-seed", strconv.FormatInt(seed, 10), "-parallel", strconv.Itoa(cfg.conns)}
	var wall, suite, cpu, setup, rss, qps []float64
	for i := 0; i < setupRuns; i++ {
		d, err := suiteSetup(cfg.suiteBin(), seed)
		if err != nil {
			return err
		}
		setup = append(setup, d.Seconds())
	}
	var lat []time.Duration
	var elapsed time.Duration
	for elapsed < budget || len(wall) == 0 {
		s0, t0 := hostSteal()
		s, err := runSuite(cfg.suiteBin(), seed, cfg.conns)
		if err != nil {
			return err
		}
		s1, t1 := hostSteal()
		rep.host.Steal = append(rep.host.Steal, stealShare(s0, t0, s1, t1))
		elapsed += s.wall
		rep.attempted += suiteExperiments
		bad := wrongTables(s.tables, digests[seed])
		rep.failed += int64(len(bad))
		if len(bad) > 0 {
			rep.note("suite seed %d: tables differ from their digests: %s", seed, strings.Join(bad, ","))
		}
		if s.err != nil {
			rep.note("%v", s.err)
			lat = append(lat, failedLatency)
			continue
		}
		lat = append(lat, s.wall)
		wall = append(wall, s.wall.Seconds())
		suite = append(suite, s.suite.Seconds())
		cpu = append(cpu, ms(s.cpu))
		rss = append(rss, s.rssMB)
		qps = append(qps, 1/s.wall.Seconds())
	}
	if len(wall) == 0 {
		return fmt.Errorf("no suite completed")
	}
	// A suite is one op: a run holds too few for ten samples beyond p90, so
	// these two are order statistics of whole suites, with n printed.
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, b50 := percentile(lat, 0.50)
	p90, b90 := percentile(lat, 0.90)
	n := len(lat)
	rep.metric("qps", median(qps), "op/s", fmt.Sprintf("suites per second, median of %d", n))
	rep.metric("p50_ms", ms(p50), "ms", fmt.Sprintf("suite process wall, n=%d, %d beyond (whole suites; below the 10-beyond floor)", n, b50))
	rep.metric("p90_ms", ms(p90), "ms", fmt.Sprintf("suite process wall, n=%d, %d beyond (whole suites; below the 10-beyond floor)", n, b90))
	rep.metric("cpu_ms_per_op", median(cpu), "ms", fmt.Sprintf("suite process user+sys per suite, median of %d", n))
	rep.metric("suite_s", median(suite), "s", fmt.Sprintf("E1–E10 wall, median of %d", n))
	rep.metric("setup_s", median(setup), "s", fmt.Sprintf("start-up to first experiment (-list-corpus), median of %d", len(setup)))
	rep.metric("rss_mb", median(rss), "MiB", fmt.Sprintf("suite process peak RSS, median of %d", n))
	rep.info("error_rate", ratio(float64(rep.failed), float64(rep.attempted)), "fraction",
		fmt.Sprintf("%d of %d experiments erred or failed their digest", rep.failed, rep.attempted))
	if p50 == failedLatency || p90 == failedLatency {
		return fmt.Errorf("suite latency percentile falls on a failed suite")
	}
	return nil
}

// writeDigests runs the suite for seeds 1..k and returns the digests file.
func writeDigests(bin string, k, workers int) ([]byte, error) {
	out := map[string]map[string]string{}
	for seed := int64(1); seed <= int64(k); seed++ {
		s, err := runSuite(bin, seed, workers)
		if err != nil {
			return nil, err
		}
		if s.err != nil {
			return nil, s.err
		}
		if len(s.tables) != suiteExperiments {
			return nil, fmt.Errorf("seed %d: %d tables, want %d", seed, len(s.tables), suiteExperiments)
		}
		d := map[string]string{}
		for id, t := range s.tables {
			d[id] = digest(t)
		}
		out[strconv.FormatInt(seed, 10)] = d
	}
	data, err := json.MarshalIndent(out, "", "  ")
	return append(data, '\n'), err
}
