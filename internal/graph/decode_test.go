package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// reflectUnmarshal is the reflective decoder UnmarshalJSON replaced: decode
// into jsonGraph with encoding/json, then add the edges one by one to a
// Builder. It is the oracle for the one-pass reader.
//
// Unguarded, it panics in NewBuilder for n < 0 and exhausts memory for a
// huge n or a huge port number (setHalf grows a node's port slice up to
// the port). Build would reject every such document anyway: a connected
// graph on n nodes has at least n-1 edges, and a node's ports are 0..deg-1
// with deg at most the number of edges. So the oracle rejects them first.
func reflectUnmarshal(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	if jg.N < 0 || jg.N > len(jg.Edges)+1 {
		return nil, fmt.Errorf("%d nodes cannot be connected by %d edges", jg.N, len(jg.Edges))
	}
	for _, e := range jg.Edges {
		if e.PU >= len(jg.Edges) || e.PV >= len(jg.Edges) {
			return nil, fmt.Errorf("port beyond the edge count in %+v", e)
		}
	}
	b := NewBuilder(jg.N)
	for _, e := range jg.Edges {
		b.AddEdge(e.U, e.PU, e.V, e.PV)
	}
	return b.Build()
}

// FuzzUnmarshalJSON checks the one-pass reader against the reflective
// oracle: both accept or both reject, and an accepted document decodes to
// the same port-numbered graph. The seeds under testdata/fuzz cover the
// wire form's corners: generator output, member order and whitespace,
// unknown and null members, duplicate and case-folded keys, non-integer
// and overflowing numbers, trailing bytes, impossible node counts and deep
// nesting; TestUnmarshalJSONDepth covers the depth limit itself.
func FuzzUnmarshalJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := reflectUnmarshal(data)
		var got Graph
		gotErr := got.UnmarshalJSON(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalJSON error %v, oracle error %v on %q", gotErr, wantErr, data)
		}
		if gotErr == nil && ContentHash(&got) != ContentHash(want) {
			t.Fatalf("UnmarshalJSON and the oracle decode %q to different graphs", data)
		}
	})
}

// TestUnmarshalJSONDepth checks nesting at encoding/json's depth limit of
// 10 000 against the oracle, and that deeper input is rejected without
// exhausting the stack. The documents are too large to be useful fuzz
// seeds: the fuzzer would spend its time minimizing their mutants.
func TestUnmarshalJSONDepth(t *testing.T) {
	nested := func(opener, inner, closer string, levels int) string {
		return strings.Repeat(opener, levels) + inner + strings.Repeat(closer, levels)
	}
	cases := []struct {
		name string
		doc  string
		ok   bool
	}{
		// The top-level object is level 1, so 9 999 arrays inside it reach
		// the limit exactly.
		{"member at the limit", `{"n":1,"edges":[],"x":` + nested("[", "", "]", 9999) + "}", true},
		{"member beyond the limit", `{"n":1,"edges":[],"x":` + nested("[", "", "]", 10000) + "}", false},
		// Inside an edge (level 3), 9 997 objects reach the limit.
		{"edge member at the limit", `{"n":1,"edges":[{"x":` + nested(`{"a":`, "0", "}", 9997) + `}],"edges":[]}`, true},
		{"edge member beyond the limit", `{"n":1,"edges":[{"x":` + nested(`{"a":`, "0", "}", 9998) + `}],"edges":[]}`, false},
		{"unterminated member", `{"n":1,"edges":[],"x":` + strings.Repeat("[", 1_000_000), false},
		{"unterminated top level", strings.Repeat("[", 1_000_000), false},
	}
	for _, c := range cases {
		var g Graph
		err := g.UnmarshalJSON([]byte(c.doc))
		_, oracleErr := reflectUnmarshal([]byte(c.doc))
		if (err == nil) != c.ok || (oracleErr == nil) != c.ok {
			t.Errorf("%s: UnmarshalJSON error %v, oracle error %v, want accepted=%v", c.name, err, oracleErr, c.ok)
		}
	}
}

// TestUnmarshalJSONAllocs pins the decoder's allocations as independent of
// the graph's size, so per-node allocations cannot creep back, and checks
// that a node count no edge list supports is rejected before anything
// sized by it is allocated.
func TestUnmarshalJSONAllocs(t *testing.T) {
	allocs := func(n, m int) float64 {
		data, err := RandomConnected(n, m, rand.New(rand.NewSource(1))).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			var g Graph
			if err := g.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64, 96), allocs(1024, 1536)
	if small != large {
		t.Errorf("decoding allocates %v times at n=64 but %v times at n=1024", small, large)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var g Graph
	err := g.UnmarshalJSON([]byte(`{"n":1000000000,"edges":[]}`))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("UnmarshalJSON accepted a billion nodes with no edges")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting a billion-node graph allocated %d bytes", grew)
	}
}

func BenchmarkUnmarshalJSON(b *testing.B) {
	data, err := RandomConnected(1024, 1536, rand.New(rand.NewSource(1))).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for b.Loop() {
		var g Graph
		if err := g.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}
