package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/graph"
)

// Request kinds, one per daemon query the workloads send.
const (
	kindCensus   = "census"   // POST /v1/census of one graph
	kindAdvice   = "advice"   // POST /v1/advice of one graph
	kindSameView = "sameview" // POST /v1/sameview of two graphs
	kindIndices  = "indices"  // POST /v1/indices of one graph
	kindCorpus   = "corpus"   // POST /v1/census of a whole corpus
)

// graphRef names the graph a request is about: a registered corpus member,
// a whole corpus (name empty), or an inline graph given as its JSON, in
// which case g is the generated graph the JSON encodes.
type graphRef struct {
	corpus, name string
	inline       []byte
	g            *graph.Graph
}

// appendJSON appends the reference as the daemon reads it. Inline graph
// JSON is spliced in verbatim: re-encoding 50 KB bodies would dominate the
// time spent building a pass.
func (r graphRef) appendJSON(b []byte) []byte {
	if r.inline != nil {
		b = append(b, `{"graph":`...)
		b = append(b, r.inline...)
		return append(b, '}')
	}
	b = append(b, `{"corpus":`...)
	b = strconv.AppendQuote(b, r.corpus)
	if r.name != "" {
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, r.name)
	}
	return append(b, '}')
}

// request is one pre-built daemon request and what it asks, so the answer
// can be recomputed in-process.
type request struct {
	kind   string
	path   string
	body   []byte
	a, b   graphRef // b is used by sameview only
	v1, v2 int
	depth  int
}

func newRequest(kind string, a, b graphRef, v1, v2, depth int) *request {
	r := &request{kind: kind, path: "/v1/" + kind, a: a, b: b, v1: v1, v2: v2, depth: depth}
	switch kind {
	case kindSameView:
		r.body = a.appendJSON([]byte(`{"a":`))
		r.body = fmt.Appendf(r.body, `,"v1":%d,"b":`, v1)
		r.body = b.appendJSON(r.body)
		r.body = fmt.Appendf(r.body, `,"v2":%d,"depth":%d}`, v2, depth)
	case kindCorpus:
		r.path = "/v1/census"
		r.body = a.appendJSON(nil)
	default:
		r.body = a.appendJSON(nil)
	}
	return r
}

// subSeed derives an independent seed for one named part of the inputs.
func subSeed(seed int64, part string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, part, i)
	return int64(h.Sum64() >> 1)
}

// warmCorpora are the registered corpora serve-warm queries.
var warmCorpora = []string{"default", "small", "hypercube"}

// daemonSeed is the daemon's default -seed, which fixes its corpora; the
// benchmark builds the same corpora in-process to know their members.
const daemonSeed = 1

// warmStreamLen is the length of one serve-warm pass.
const warmStreamLen = 10000

// sameViewChoices is how many seeded node pairs each consecutive member
// pair is compared at, which bounds the distinct sameview requests.
const sameViewChoices = 4

// warmInputs is serve-warm's request set: the distinct requests (each sent
// once before timing to record its reference answer) and the seeded stream
// of indices into them that every timed pass replays.
type warmInputs struct {
	distinct []*request
	stream   []int
	members  int // corpus members queried
	unions   int // distinct member pairs compared (engine union entries)
	corpora  map[string]*corpus.Corpus
	eng      *engine.Engine // warm over the corpora; answers the reference checks
}

// buildWarmInputs builds the three corpora exactly as the daemon does and
// draws the mix: member census 30%, member advice 20%, sameview of
// consecutive members at depth 3 20%, indices of a feasible member 20%,
// whole-corpus census 10%.
func buildWarmInputs(seed int64, n int) (*warmInputs, error) {
	in := &warmInputs{eng: engine.New(0), corpora: map[string]*corpus.Corpus{}}
	var members []graphRef
	var sizes []int
	var feasible []graphRef
	for _, name := range warmCorpora {
		c, err := corpus.Corpora.Build(name, daemonSeed, in.eng.Feasible)
		if err != nil {
			return nil, err
		}
		in.corpora[name] = c
		for _, m := range c.Names() {
			ref := graphRef{corpus: name, name: m}
			members = append(members, ref)
			sizes = append(sizes, c.Nodes(m))
			if in.eng.Feasible(c.Graph(m)) {
				feasible = append(feasible, ref)
			}
		}
	}
	in.members = len(members)
	in.unions = len(members) - 1
	rng := rand.New(rand.NewSource(subSeed(seed, "warm", 0)))
	byKind := map[string][]int{}
	add := func(kind string, r *request) {
		byKind[kind] = append(byKind[kind], len(in.distinct))
		in.distinct = append(in.distinct, r)
	}
	for _, m := range members {
		add(kindCensus, newRequest(kindCensus, m, graphRef{}, 0, 0, 0))
		add(kindAdvice, newRequest(kindAdvice, m, graphRef{}, 0, 0, 0))
	}
	for i := 0; i+1 < len(members); i++ {
		for j := 0; j < sameViewChoices; j++ {
			add(kindSameView, newRequest(kindSameView, members[i], members[i+1],
				rng.Intn(sizes[i]), rng.Intn(sizes[i+1]), 3))
		}
	}
	for _, m := range feasible {
		add(kindIndices, newRequest(kindIndices, m, graphRef{}, 0, 0, 0))
	}
	for _, name := range warmCorpora {
		add(kindCorpus, newRequest(kindCorpus, graphRef{corpus: name}, graphRef{}, 0, 0, 0))
	}
	mix := []struct {
		kind   string
		weight int
	}{{kindCensus, 30}, {kindAdvice, 20}, {kindSameView, 20}, {kindIndices, 20}, {kindCorpus, 10}}
	in.stream = make([]int, n)
	for i := range in.stream {
		x := rng.Intn(100)
		for _, m := range mix {
			if x < m.weight {
				ids := byKind[m.kind]
				in.stream[i] = ids[rng.Intn(len(ids))]
				break
			}
			x -= m.weight
		}
	}
	return in, nil
}

// pass returns one serve-warm pass: the stream, one request per unit.
func (in *warmInputs) pass() [][]*request {
	units := make([][]*request, len(in.stream))
	for i, id := range in.stream {
		units[i] = []*request{in.distinct[id]}
	}
	return units
}

// Serve-cold sizing: each session draws graph.RandomConnected(n, 1.5n) with
// n uniform in [coldMinNodes, coldMaxNodes]; a pass is coldSessions
// sessions.
const (
	coldMinNodes = 64
	coldMaxNodes = 2048
	coldSessions = 150
)

// coldPass is one serve-cold pass: fresh graphs, and per session an inline
// census, an inline advice of the same graph, and an inline sameview of that
// graph against the previous session's graph at depth 3. graphs[0] is the
// previous graph of the first session.
type coldPass struct {
	graphs   []*graph.Graph
	sessions [][]*request
}

func buildColdPass(seed int64, pass, sessions int) *coldPass {
	rng := rand.New(rand.NewSource(subSeed(seed, "cold", pass)))
	p := &coldPass{graphs: make([]*graph.Graph, sessions+1)}
	js := make([][]byte, sessions+1)
	for i := range p.graphs {
		n := coldMinNodes + rng.Intn(coldMaxNodes-coldMinNodes+1)
		p.graphs[i] = graph.RandomConnected(n, n*3/2, rng)
		var err error
		if js[i], err = p.graphs[i].MarshalJSON(); err != nil {
			panic(err) // marshalling a built graph cannot fail
		}
	}
	for i := 1; i <= sessions; i++ {
		cur, prev := graphRef{inline: js[i], g: p.graphs[i]}, graphRef{inline: js[i-1], g: p.graphs[i-1]}
		census := newRequest(kindCensus, cur, graphRef{}, 0, 0, 0)
		advice := *census
		advice.kind, advice.path = kindAdvice, "/v1/"+kindAdvice
		p.sessions = append(p.sessions, []*request{census, &advice,
			newRequest(kindSameView, cur, prev, rng.Intn(p.graphs[i].N()), rng.Intn(p.graphs[i-1].N()), 3),
		})
	}
	return p
}
