package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

func streamBytes(in *warmInputs) []byte {
	var b bytes.Buffer
	for _, id := range in.stream {
		r := in.distinct[id]
		b.WriteString(r.path)
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func passBytes(p *coldPass) []byte {
	var b bytes.Buffer
	for _, s := range p.sessions {
		for _, r := range s {
			b.WriteString(r.path)
			b.Write(r.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestWarmStreamIsSeeded(t *testing.T) {
	a, err := buildWarmInputs(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := buildWarmInputs(7, 2000)
	c, _ := buildWarmInputs(8, 2000)
	if !bytes.Equal(streamBytes(a), streamBytes(b)) {
		t.Fatal("the same seed gave two different serve-warm streams")
	}
	if bytes.Equal(streamBytes(a), streamBytes(c)) {
		t.Fatal("seeds 7 and 8 gave the same serve-warm stream")
	}
	if a.members != 23 || a.members+a.unions > 128 {
		t.Fatalf("working set %d graphs + %d unions", a.members, a.unions)
	}
	kinds := map[string]int{}
	for _, id := range a.stream {
		kinds[a.distinct[id].kind]++
	}
	for kind, share := range map[string]float64{kindCensus: .3, kindAdvice: .2, kindSameView: .2, kindIndices: .2, kindCorpus: .1} {
		if got := float64(kinds[kind]) / 2000; got < share-0.04 || got > share+0.04 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, share)
		}
	}
}

func TestColdPassIsSeeded(t *testing.T) {
	a, b := buildColdPass(7, 0, 3), buildColdPass(7, 0, 3)
	if !bytes.Equal(passBytes(a), passBytes(b)) {
		t.Fatal("the same seed and pass gave two different serve-cold passes")
	}
	if bytes.Equal(passBytes(a), passBytes(buildColdPass(8, 0, 3))) {
		t.Fatal("seeds 7 and 8 gave the same serve-cold pass")
	}
	if bytes.Equal(passBytes(a), passBytes(buildColdPass(7, 1, 3))) {
		t.Fatal("passes 0 and 1 drew the same graphs")
	}
	for _, g := range a.graphs {
		if g.N() < coldMinNodes || g.N() > coldMaxNodes || g.NumEdges() != g.N()*3/2 {
			t.Fatalf("graph with %d nodes, %d edges", g.N(), g.NumEdges())
		}
	}
	// The inline body decodes to the generated graph.
	var ref struct{ Graph json.RawMessage }
	if err := json.Unmarshal(a.sessions[0][0].body, &ref); err != nil {
		t.Fatal(err)
	}
	var g graph.Graph
	if err := g.UnmarshalJSON(ref.Graph); err != nil || graph.ContentHash(&g) != graph.ContentHash(a.graphs[1]) {
		t.Fatalf("census body does not decode to session 0's graph (%v)", err)
	}
}

func TestDigestCheckCatchesPerturbedTable(t *testing.T) {
	out := "E1 — first\na  b\n-  -\n1  2\n\nE2 — second\nx\n\ncompleted 2 experiments in 1.5s\n"
	tables := parseTables(out)
	if len(tables) != 2 || tables["E2"] != "E2 — second\nx" {
		t.Fatalf("parsed %q", tables)
	}
	want := map[string]string{"E1": digest(tables["E1"]), "E2": digest(tables["E2"])}
	if bad := wrongTables(tables, want); len(bad) != 0 {
		t.Fatalf("unchanged tables flagged: %v", bad)
	}
	perturbed := parseTables(strings.Replace(out, "1  2", "1  3", 1))
	if bad := wrongTables(perturbed, want); len(bad) != 1 || bad[0] != "E1" {
		t.Fatalf("perturbed E1 flagged as %v", bad)
	}
	delete(perturbed, "E2")
	if bad := wrongTables(perturbed, want); len(bad) != 2 {
		t.Fatalf("missing E2 not flagged: %v", bad)
	}
}

func TestCommittedDigestsCoverEverySeed(t *testing.T) {
	digests, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{-9, -1, 0, 1, 7, 8, 1 << 40} {
		s := suiteSeed(seed, len(digests))
		if len(digests[s]) != suiteExperiments {
			t.Errorf("seed %d maps to suite seed %d with %d digests", seed, s, len(digests[s]))
		}
	}
}

// TestWrongAnswerIsAFailure checks serve-cold's answer check: replies equal
// to the in-process answers pass, and a wrong expected answer fails the
// request and makes the error rate nonzero.
func TestWrongAnswerIsAFailure(t *testing.T) {
	p := buildColdPass(3, 0, 2)
	ans := &answerer{eng: engine.New(0), generated: true}
	exs := make([][]exchange, len(p.sessions))
	for i, s := range p.sessions {
		for _, r := range s {
			want, err := ans.answer(r)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := json.Marshal(want)
			exs[i] = append(exs[i], exchange{req: r, status: 200, body: body})
		}
	}
	if wrong := verifyAnswers(exs, &answerer{eng: engine.New(0), generated: true}); wrong != 0 {
		t.Fatalf("%d correct replies marked wrong", wrong)
	}
	// Expect the census of another graph for session 0.
	r := *p.sessions[0][0]
	r.a.g = graph.Path(5)
	exs[0][0].req = &r
	if wrong := verifyAnswers(exs, &answerer{eng: engine.New(0), generated: true}); wrong != 1 || exs[0][0].err == nil {
		t.Fatalf("wrong expected answer: %d marked", wrong)
	}
	ph := &phase{passes: 1, requests: 6, failed: 1, qps: []float64{1}, p50: []float64{1}, p90: []float64{1},
		cpuPerReq: []float64{1}, wall: []float64{1}, setups: []float64{1}}
	var out bytes.Buffer
	rep := newReport(&out)
	ph.e2e(rep)
	if res := rep.result(); res.Correct || res.Failed != 1 || !strings.Contains(out.String(), "error_rate") ||
		strings.Contains(out.String(), "error_rate                                            0 ") {
		t.Fatalf("result %+v after a wrong answer; report:\n%s", res, out.String())
	}
}

func TestBenchmarkJSONNamesTheTracedMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, traced run %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// builtBinaries builds the daemon and the suite of this checkout once per
// test binary.
func builtBinaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-bin-")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/fourshadesd", "./cmd/advicebench")
		cmd.Dir = ".."
		var out []byte
		if out, buildErr = cmd.CombinedOutput(); buildErr != nil {
			buildErr = &buildError{buildErr, string(out)}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

type buildError struct {
	err error
	out string
}

func (e *buildError) Error() string { return e.err.Error() + ": " + e.out }

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// TestSmoke runs each workload for one second: exit 0, a correct result,
// and exactly the end-to-end metrics BENCHMARK.json names, with its units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon and the suite")
	}
	bin := builtBinaries(t)
	want := map[string]string{}
	for _, m := range readBenchmarkJSON(t).EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"-root", t.TempDir(), "-bin", bin, "--workload", w, "--seed", "5", "--seconds", "1", "--trace", "0"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result %+v\n%s", res, stdout.String())
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if want[name] != m.Unit || m.Value <= 0 {
					t.Errorf("%s = %v %s, want a positive value in %s", name, m.Value, m.Unit, want[name])
				}
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("metrics %v, want the %d of BENCHMARK.json", got, len(want))
			}
		})
	}
}

// TestRunShRefusesIncompleteCheckout runs the launcher in a directory that
// holds only the benchmark: it must fail fast without printing a result.
func TestRunShRefusesIncompleteCheckout(t *testing.T) {
	dir := t.TempDir()
	os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755)
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), script, 0o644)
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "serve-warm", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil || stdout.Len() != 0 {
		t.Fatalf("run.sh in an incomplete checkout: err %v, stdout %q", err, stdout.String())
	}
}
