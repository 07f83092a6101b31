package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 0, 1, 0)
	b.AddEdge(1, 1, 2, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 || g.Degree(2) != 1 {
		t.Fatalf("unexpected degrees %v", g.DegreeSequence())
	}
	if h := g.Neighbor(1, 1); h.To != 2 || h.ToPort != 0 {
		t.Fatalf("Neighbor(1,1) = %+v", h)
	}
	if p, ok := g.PortTo(2, 1); !ok || p != 0 {
		t.Fatalf("PortTo(2,1) = %d, %v", p, ok)
	}
	if g.Adjacent(0, 2) {
		t.Fatal("nodes 0 and 2 should not be adjacent")
	}
}

func TestBuilderOutOfOrderPorts(t *testing.T) {
	// Ports can be declared in any order as long as they are dense at the end,
	// like the roots of the paper's trees T (children ports 1..Δ-2 first,
	// port 0 attached later).
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1, 0)
	b.AddEdge(0, 2, 2, 0)
	b.AddEdge(0, 0, 3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Neighbor(0, 0).To != 3 || g.Neighbor(0, 1).To != 1 || g.Neighbor(0, 2).To != 2 {
		t.Fatal("ports were not assigned as requested")
	}
}

func TestBuilderMissingPort(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 1, 0) // node 0 uses port 1 but never port 0
	b.AddEdge(1, 1, 2, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a node with a gap in its port numbers")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Builder)
	}{
		{"self-loop", func(b *Builder) { b.AddEdge(0, 0, 0, 1) }},
		{"node out of range", func(b *Builder) { b.AddEdge(0, 0, 9, 0) }},
		{"negative port", func(b *Builder) { b.AddEdge(0, -1, 1, 0) }},
		{"port reuse", func(b *Builder) {
			b.AddEdge(0, 0, 1, 0)
			b.AddEdge(0, 0, 2, 0)
		}},
		{"parallel edge", func(b *Builder) {
			b.AddEdge(0, 0, 1, 0)
			b.AddEdge(0, 1, 1, 1)
		}},
		{"parallel edge found from the endpoint with fewer ports", func(b *Builder) {
			b.AddEdge(0, 0, 1, 0)
			b.AddEdge(0, 1, 2, 0)
			b.AddEdge(0, 2, 1, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(3)
			tc.f(b)
			if b.Err() == nil {
				t.Fatalf("%s: builder accepted invalid edge", tc.name)
			}
			if _, err := b.Build(); err == nil {
				t.Fatalf("%s: Build succeeded after invalid edge", tc.name)
			}
		})
	}
}

func TestDisconnectedRejected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 0, 1, 0)
	b.AddEdge(2, 0, 3, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a disconnected graph")
	}
}

func TestSwapPorts(t *testing.T) {
	g := Star(4) // centre 0 with ports 0,1,2 to leaves 1,2,3
	g.SwapPorts(0, 0, 2)
	if g.Neighbor(0, 0).To != 3 || g.Neighbor(0, 2).To != 1 {
		t.Fatal("SwapPorts did not exchange neighbours")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid after SwapPorts: %v", err)
	}
	// Swapping back restores the original graph.
	g.SwapPorts(0, 2, 0)
	if !Isomorphic(g, Star(4)) {
		t.Fatal("double swap is not the identity")
	}
	// Self-swap is a no-op.
	before := g.Clone()
	g.SwapPorts(0, 1, 1)
	if !Isomorphic(g, before) {
		t.Fatal("self swap changed the graph")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Ring(5)
	c := g.Clone()
	c.SwapPorts(0, 0, 1)
	if g.Neighbor(0, 0) == c.Neighbor(0, 0) {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		n     int
		edges int
		maxD  int
	}{
		{"Ring(5)", Ring(5), 5, 5, 2},
		{"Path(4)", Path(4), 4, 3, 2},
		{"ThreeNodeLine", ThreeNodeLine(), 3, 2, 2},
		{"Complete(5)", Complete(5), 5, 10, 4},
		{"Star(6)", Star(6), 6, 5, 5},
		{"Grid(3,4)", Grid(3, 4), 12, 17, 4},
		{"Torus(3,3)", Torus(3, 3), 9, 18, 4},
		{"Hypercube(3)", Hypercube(3), 8, 12, 3},
		{"FullTree(2,3)", FullTree(2, 3), 15, 14, 3},
		{"Caterpillar", Caterpillar(3, []int{1, 0, 2}), 6, 5, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("invalid graph: %v", err)
			}
			if tc.g.N() != tc.n {
				t.Errorf("N = %d, want %d", tc.g.N(), tc.n)
			}
			if tc.g.NumEdges() != tc.edges {
				t.Errorf("NumEdges = %d, want %d", tc.g.NumEdges(), tc.edges)
			}
			if tc.g.MaxDegree() != tc.maxD {
				t.Errorf("MaxDegree = %d, want %d", tc.g.MaxDegree(), tc.maxD)
			}
		})
	}
}

func TestFullTreePortScheme(t *testing.T) {
	g := FullTree(3, 2)
	// Root (node 0) has ports 0..2 to children.
	if g.Degree(0) != 3 {
		t.Fatalf("root degree %d, want 3", g.Degree(0))
	}
	// Each child of the root is internal: port 3 (== arity) to the parent.
	for p := 0; p < 3; p++ {
		child := g.Neighbor(0, p).To
		if g.Degree(child) != 4 {
			t.Fatalf("internal node degree %d, want 4", g.Degree(child))
		}
		if g.Neighbor(0, p).ToPort != 3 {
			t.Fatalf("child's parent port is %d, want 3", g.Neighbor(0, p).ToPort)
		}
		// Its children are leaves with parent port 0.
		for q := 0; q < 3; q++ {
			leaf := g.Neighbor(child, q).To
			if g.Degree(leaf) != 1 {
				t.Fatalf("leaf degree %d, want 1", g.Degree(leaf))
			}
			if g.Neighbor(child, q).ToPort != 0 {
				t.Fatalf("leaf parent port %d, want 0", g.Neighbor(child, q).ToPort)
			}
		}
	}
}

func TestRandomGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		g := RandomRegular(12, 3, rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("RandomRegular invalid: %v", err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != 3 {
				t.Fatalf("RandomRegular node %d has degree %d", v, g.Degree(v))
			}
		}
		h := RandomConnected(15, 20, rng)
		if err := h.Validate(); err != nil {
			t.Fatalf("RandomConnected invalid: %v", err)
		}
		if h.NumEdges() != 20 {
			t.Fatalf("RandomConnected edges = %d, want 20", h.NumEdges())
		}
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(6)
	if d := g.Dist(0, 5); d != 5 {
		t.Errorf("Dist(0,5) = %d, want 5", d)
	}
	if d := g.Diameter(); d != 5 {
		t.Errorf("Diameter = %d, want 5", d)
	}
	if e := g.Eccentricity(2); e != 3 {
		t.Errorf("Eccentricity(2) = %d, want 3", e)
	}
	if d := Torus(4, 4).Diameter(); d != 4 {
		t.Errorf("torus diameter = %d, want 4", d)
	}
}

func TestShortestPathPorts(t *testing.T) {
	g := Path(5)
	ports := g.ShortestPathPorts(0, 4)
	nodes, err := g.FollowPortPath(0, ports)
	if err != nil {
		t.Fatal(err)
	}
	if nodes[len(nodes)-1] != 4 || len(ports) != 4 {
		t.Fatalf("shortest path %v visits %v", ports, nodes)
	}
	if got := g.ShortestPathPorts(3, 3); len(got) != 0 {
		t.Fatalf("path to self should be empty, got %v", got)
	}
}

func TestFollowFullPath(t *testing.T) {
	g := ThreeNodeLine() // ports 0,(0,1),0
	nodes, err := g.FollowFullPath(0, []PortPair{{Out: 0, In: 0}, {Out: 1, In: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || nodes[2] != 2 {
		t.Fatalf("unexpected walk %v", nodes)
	}
	// A wrong incoming port must be rejected.
	if _, err := g.FollowFullPath(0, []PortPair{{Out: 0, In: 1}}); err == nil {
		t.Fatal("FollowFullPath accepted a wrong incoming port")
	}
	if _, err := g.FollowPortPath(0, []int{5}); err == nil {
		t.Fatal("FollowPortPath accepted an out-of-range port")
	}
}

func TestFirstPortsOnSimplePaths(t *testing.T) {
	// In a ring every node has both ports usable as the first edge of a simple
	// path to any other node.
	g := Ring(5)
	ports := g.FirstPortsOnSimplePaths(0, 2)
	if len(ports) != 2 {
		t.Fatalf("ring: got ports %v, want both", ports)
	}
	// In a path only the port facing the target works.
	p := Path(5)
	got := p.FirstPortsOnSimplePaths(1, 4)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("path: got ports %v, want [1]", got)
	}
	if out := p.FirstPortsOnSimplePaths(3, 3); out != nil {
		t.Fatalf("self target should yield nil, got %v", out)
	}
}

func TestSimplePortPaths(t *testing.T) {
	g := Ring(4)
	paths := g.SimplePortPaths(0, 2, SimplePathLimits{})
	if len(paths) != 2 {
		t.Fatalf("ring(4): %d simple paths 0->2, want 2", len(paths))
	}
	for _, pp := range paths {
		nodes, err := g.FollowPortPath(0, pp)
		if err != nil {
			t.Fatal(err)
		}
		if !IsSimple(nodes) || nodes[len(nodes)-1] != 2 {
			t.Fatalf("path %v is not a simple path to 2 (%v)", pp, nodes)
		}
	}
	// Limits are honoured.
	limited := g.SimplePortPaths(0, 2, SimplePathLimits{MaxPaths: 1})
	if len(limited) != 1 {
		t.Fatalf("MaxPaths ignored: got %d paths", len(limited))
	}
	short := g.SimplePortPaths(0, 2, SimplePathLimits{MaxLen: 1})
	if len(short) != 0 {
		t.Fatalf("MaxLen ignored: got %v", short)
	}
	full := g.SimpleFullPaths(0, 2, SimplePathLimits{})
	for _, fp := range full {
		nodes, err := g.FollowFullPath(0, fp)
		if err != nil {
			t.Fatal(err)
		}
		if nodes[len(nodes)-1] != 2 {
			t.Fatalf("full path %v does not end at 2", fp)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	graphs := []*Graph{Ring(6), Complete(4), Grid(2, 3), FullTree(2, 2), ThreeNodeLine()}
	for _, g := range graphs {
		data, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Graph
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if !Isomorphic(g, &back) {
			t.Fatal("JSON round trip changed the graph")
		}
		// In fact identifiers must be preserved exactly.
		for v := 0; v < g.N(); v++ {
			for p := 0; p < g.Degree(v); p++ {
				if g.Neighbor(v, p) != back.Neighbor(v, p) {
					t.Fatalf("JSON round trip changed edge at node %d port %d", v, p)
				}
			}
		}
	}
	var g Graph
	if err := g.UnmarshalJSON([]byte(`{"n":2,"edges":[]}`)); err == nil {
		t.Fatal("UnmarshalJSON accepted a disconnected graph")
	}
}

func TestDOT(t *testing.T) {
	g := ThreeNodeLine()
	dot := g.DOT("line", map[int]string{0: "a", 2: "c"})
	for _, want := range []string{"graph \"line\"", "0 -- 1", "1 -- 2", "taillabel=\"1\"", "label=\"a\""} {
		if !contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestIsomorphism(t *testing.T) {
	if !Isomorphic(Ring(6), Ring(6)) {
		t.Fatal("a ring is not isomorphic to itself")
	}
	if Isomorphic(Ring(6), Ring(7)) {
		t.Fatal("rings of different sizes reported isomorphic")
	}
	if Isomorphic(Path(4), Star(4)) {
		t.Fatal("path and star reported isomorphic")
	}
	// Relabelling nodes of a graph preserves isomorphism.
	g := Caterpillar(4, []int{2, 0, 1, 3})
	perm := rand.New(rand.NewSource(3)).Perm(g.N())
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.U], e.PU, perm[e.V], e.PV)
	}
	relabelled := b.MustBuild()
	m, ok := FindIsomorphism(g, relabelled)
	if !ok {
		t.Fatal("relabelled graph not recognised as isomorphic")
	}
	for v := 0; v < g.N(); v++ {
		if m[v] != perm[v] {
			t.Fatalf("recovered mapping %v differs from permutation %v", m, perm)
		}
	}
	// Changing one port labelling breaks port-preserving isomorphism.
	h := g.Clone()
	h.SwapPorts(0, 0, 1)
	if Isomorphic(g, h) {
		t.Fatal("port swap should break port-preserving isomorphism")
	}
}

func TestAutomorphic(t *testing.T) {
	if !Automorphic(Ring(5)) {
		t.Error("oriented ring should have a rotation automorphism")
	}
	if !Automorphic(Hypercube(3)) {
		t.Error("hypercube should be automorphic")
	}
	if Automorphic(ThreeNodeLine()) {
		t.Error("the 3-node line with ports 0,0,1,0 has no non-trivial automorphism")
	}
	if Automorphic(Caterpillar(3, []int{1, 0, 2})) {
		t.Error("asymmetric caterpillar should not be automorphic")
	}
}

// Property: RandomConnected always builds valid graphs whose edge count is as
// requested, across a range of sizes.
func TestRandomConnectedQuick(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		n := 2 + int(a%20)
		maxM := n * (n - 1) / 2
		m := (n - 1) + int(b)%(maxM-(n-1)+1)
		g := RandomConnected(n, m, rand.New(rand.NewSource(seed)))
		return g.Validate() == nil && g.N() == n && g.NumEdges() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: for random graphs, every port reported by FirstPortsOnSimplePaths
// really is the first port of some simple path, and ports not reported are
// never the first port of a simple path.
func TestFirstPortsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		m := n - 1 + rng.Intn(n)
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := RandomConnected(n, m, rng)
		v := rng.Intn(n)
		target := rng.Intn(n)
		if v == target {
			return true
		}
		reported := make(map[int]bool)
		for _, p := range g.FirstPortsOnSimplePaths(v, target) {
			reported[p] = true
		}
		paths := g.SimplePortPaths(v, target, SimplePathLimits{})
		fromPaths := make(map[int]bool)
		for _, pp := range paths {
			fromPaths[pp[0]] = true
		}
		if len(reported) != len(fromPaths) {
			return false
		}
		for p := range fromPaths {
			if !reported[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBFS(b *testing.B) {
	g := Torus(30, 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.BFSDist(i % g.N())
	}
}
