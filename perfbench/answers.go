package main

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/algorithms"
	"repro/internal/corpus"
	"repro/internal/election"
	"repro/internal/engine"
	"repro/internal/graph"
)

// The daemon's response shapes, decoded for comparison with the answers the
// benchmark computes in-process.
type censusRow struct {
	Name               string `json:"name"`
	Nodes              int    `json:"nodes"`
	StabilisationDepth int    `json:"stabilisation_depth"`
	ClassesAtStable    int    `json:"classes_at_stabilisation"`
	Feasible           bool   `json:"feasible"`
	MinDepthSomeUnique int    `json:"min_depth_some_unique"`
}

type censusAnswer struct {
	Rows []censusRow `json:"rows"`
}

type adviceRow struct {
	Name  string `json:"name"`
	Bits  int    `json:"advice_bits,omitempty"`
	Error string `json:"error,omitempty"`
}

type adviceAnswer struct {
	Rows []adviceRow `json:"rows"`
}

type indicesAnswer struct {
	Name    string         `json:"name"`
	Indices map[string]int `json:"indices"`
}

type sameViewAnswer struct {
	Same bool `json:"same"`
}

// answerer recomputes daemon answers in-process, making the public calls the
// daemon's handlers make. With a traced scope, each call is a span under the
// scope's current span; the JSON handling around the calls is left to the
// daemon, whose share of the latency is what the replay subtracts out.
type answerer struct {
	eng     *engine.Engine
	corpora map[string]*corpus.Corpus
	sc      *scope
	// generated answers inline requests on the generated graph instead of
	// decoding the body, which checks the daemon's decode as well and
	// costs the check no decode time of its own.
	generated bool
}

// answer returns the in-process answer to r as the daemon's response type.
func (a *answerer) answer(r *request) (any, error) {
	if r.kind == kindCorpus {
		c := a.corpora[r.a.corpus]
		if c == nil {
			return nil, fmt.Errorf("unknown corpus %q", r.a.corpus)
		}
		ans := &censusAnswer{}
		for _, name := range c.Names() {
			ans.Rows = append(ans.Rows, a.censusRow(name, c.Graph(name)))
		}
		return ans, nil
	}
	name, g, err := a.resolve(r.a)
	if err != nil {
		return nil, err
	}
	switch r.kind {
	case kindCensus:
		return &censusAnswer{Rows: []censusRow{a.censusRow(name, g)}}, nil
	case kindAdvice:
		var bits int
		a.sc.call("algorithms", "algorithms.SelectionAdviceSize", func() {
			bits, err = algorithms.SelectionAdviceSize(a.eng, g)
		})
		if err != nil {
			return &adviceAnswer{Rows: []adviceRow{{Name: name, Error: err.Error()}}}, nil
		}
		return &adviceAnswer{Rows: []adviceRow{{Name: name, Bits: bits}}}, nil
	case kindIndices:
		var idx map[election.Task]int
		a.sc.call("election", "election.Indices", func() {
			idx, err = election.Indices(g, election.Options{Engine: a.eng})
		})
		if err != nil {
			return nil, err
		}
		ans := &indicesAnswer{Name: name, Indices: map[string]int{}}
		for task, v := range idx {
			ans.Indices[task.String()] = v
		}
		return ans, nil
	case kindSameView:
		_, g2, err := a.resolve(r.b)
		if err != nil {
			return nil, err
		}
		var same bool
		a.sc.call("engine", "engine.SameViewAcross", func() {
			same = a.eng.SameViewAcross(g, r.v1, g2, r.v2, r.depth)
		})
		return &sameViewAnswer{Same: same}, nil
	}
	return nil, fmt.Errorf("unknown request kind %q", r.kind)
}

// resolve decodes an inline graph (a graph-layer span) or looks up a corpus
// member.
func (a *answerer) resolve(ref graphRef) (string, *graph.Graph, error) {
	if ref.inline != nil && a.generated {
		return "inline", ref.g, nil
	}
	if ref.inline != nil {
		var g graph.Graph
		var err error
		a.sc.call("graph", "graph.UnmarshalJSON", func() { err = g.UnmarshalJSON(ref.inline) })
		return "inline", &g, err
	}
	c := a.corpora[ref.corpus]
	if c == nil || !c.Has(ref.name) {
		return "", nil, fmt.Errorf("unknown corpus member %s/%s", ref.corpus, ref.name)
	}
	return ref.name, c.Graph(ref.name), nil
}

// censusRow is the daemon's class census of one graph; as one engine span
// it is the cold census the engine layer is charged with.
func (a *answerer) censusRow(name string, g *graph.Graph) censusRow {
	row := censusRow{Name: name, Nodes: g.N()}
	a.sc.call("engine", "engine.census", func() {
		row.StabilisationDepth = a.eng.StabilisationDepth(g)
		row.MinDepthSomeUnique, _ = a.eng.MinDepthSomeUnique(g)
		row.ClassesAtStable = a.eng.NumClassesAt(g, row.StabilisationDepth)
		row.Feasible = a.eng.Feasible(g)
	})
	return row
}

// sameAnswer reports whether the daemon's response body decodes to the
// expected in-process answer.
func sameAnswer(body []byte, want any) bool {
	got := reflect.New(reflect.TypeOf(want).Elem()).Interface()
	if err := json.Unmarshal(body, got); err != nil {
		return false
	}
	return reflect.DeepEqual(got, want)
}
