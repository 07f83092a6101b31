// Package graph implements simple undirected connected port-numbered graphs,
// the network model of the paper: nodes are anonymous, but at every node v the
// incident edges carry distinct port numbers 0..deg(v)-1, and the two ports of
// an edge are unrelated.
//
// Node identifiers exist only for the benefit of the simulator and of the
// analysis code (views, election indices, constructions); distributed
// algorithms never observe them.
package graph

import (
	"fmt"
	"sort"
)

// Half is one endpoint of an edge as seen from the opposite side: the node
// reached and the port number of the edge at that node.
type Half struct {
	To     int // neighbouring node
	ToPort int // port number of this edge at the neighbouring node
}

// Edge is an undirected port-labelled edge.
type Edge struct {
	U, PU int // endpoint U and the port of the edge at U
	V, PV int // endpoint V and the port of the edge at V
}

// Graph is a simple undirected connected port-numbered graph. The zero value
// is an empty graph; use a Builder to construct instances.
type Graph struct {
	adj [][]Half
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree Δ of the graph (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for v := range g.adj {
		total += len(g.adj[v])
	}
	return total / 2
}

// Neighbor returns the endpoint reached from node v through port p.
func (g *Graph) Neighbor(v, p int) Half {
	if p < 0 || p >= len(g.adj[v]) {
		panic(fmt.Sprintf("graph: node %d has no port %d (degree %d)", v, p, len(g.adj[v])))
	}
	return g.adj[v][p]
}

// PortTo returns the port at u of the edge {u, v} and true, or -1 and false if
// u and v are not adjacent.
func (g *Graph) PortTo(u, v int) (int, bool) {
	for p, h := range g.adj[u] {
		if h.To == v {
			return p, true
		}
	}
	return -1, false
}

// Adjacent reports whether u and v share an edge.
func (g *Graph) Adjacent(u, v int) bool {
	_, ok := g.PortTo(u, v)
	return ok
}

// Edges returns all edges with U < V, sorted by (U, PU).
func (g *Graph) Edges() []Edge {
	var edges []Edge
	for u := range g.adj {
		for pu, h := range g.adj[u] {
			if u < h.To {
				edges = append(edges, Edge{U: u, PU: pu, V: h.To, PV: h.ToPort})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].PU < edges[j].PU
	})
	return edges
}

// DegreeSequence returns the sorted (descending) degree sequence.
func (g *Graph) DegreeSequence() []int {
	ds := make([]int, g.N())
	for v := range g.adj {
		ds[v] = len(g.adj[v])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ds)))
	return ds
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	adj := make([][]Half, len(g.adj))
	for v := range g.adj {
		adj[v] = append([]Half(nil), g.adj[v]...)
	}
	return &Graph{adj: adj}
}

// DisjointUnion returns the disjoint union of g1 and g2: the nodes of g1 keep
// their identifiers and the nodes of g2 are shifted by g1.N(). The result is
// deliberately not connected, so it must not be Validated or handed to the
// simulators; it exists for whole-graph analyses that are indifferent to
// connectivity — in particular cross-graph view refinement, where
// B^h(u in g1) = B^h(v in g2) exactly when u and n1+v land in the same view
// class of the union.
func DisjointUnion(g1, g2 *Graph) *Graph {
	n1 := g1.N()
	adj := make([][]Half, n1+g2.N())
	for v, hs := range g1.adj {
		adj[v] = append([]Half(nil), hs...)
	}
	for v, hs := range g2.adj {
		shifted := make([]Half, len(hs))
		for p, h := range hs {
			shifted[p] = Half{To: h.To + n1, ToPort: h.ToPort}
		}
		adj[n1+v] = shifted
	}
	return &Graph{adj: adj}
}

// SwapPorts exchanges ports p and q at node v, updating the records of the two
// affected neighbours. Swapping a port with itself is a no-op.
func (g *Graph) SwapPorts(v, p, q int) {
	if p == q {
		return
	}
	d := len(g.adj[v])
	if p < 0 || q < 0 || p >= d || q >= d {
		panic(fmt.Sprintf("graph: SwapPorts(%d, %d, %d) out of range for degree %d", v, p, q, d))
	}
	hp, hq := g.adj[v][p], g.adj[v][q]
	g.adj[v][p], g.adj[v][q] = hq, hp
	// The neighbours' ToPort entries pointing back at v must follow the swap.
	g.adj[hp.To][hp.ToPort] = Half{To: v, ToPort: q}
	g.adj[hq.To][hq.ToPort] = Half{To: v, ToPort: p}
}

// Validate checks the structural invariants required by the model: port
// numbers are consistent on both endpoints, the graph is simple (no loops or
// parallel edges) and connected.
func (g *Graph) Validate() error {
	if g.N() == 0 {
		return fmt.Errorf("graph: empty graph")
	}
	stamp := make([]int, g.N()) // stamp[w] == v+1 once node v has an edge to w
	for v := range g.adj {
		for p, h := range g.adj[v] {
			if h.To < 0 || h.To >= g.N() {
				return fmt.Errorf("graph: node %d port %d points to invalid node %d", v, p, h.To)
			}
			if h.To == v {
				return fmt.Errorf("graph: node %d has a self-loop at port %d", v, p)
			}
			if stamp[h.To] == v+1 {
				return fmt.Errorf("graph: parallel edge between %d and %d", v, h.To)
			}
			stamp[h.To] = v + 1
			if h.ToPort < 0 || h.ToPort >= len(g.adj[h.To]) {
				return fmt.Errorf("graph: node %d port %d names invalid reverse port %d at node %d",
					v, p, h.ToPort, h.To)
			}
			back := g.adj[h.To][h.ToPort]
			if back.To != v || back.ToPort != p {
				return fmt.Errorf("graph: edge (%d,%d)->(%d,%d) is not mirrored (found (%d,%d))",
					v, p, h.To, h.ToPort, back.To, back.ToPort)
			}
		}
	}
	if !g.Connected() {
		return fmt.Errorf("graph: graph is not connected")
	}
	return nil
}

// Connected reports whether the graph is connected (the empty graph is not).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return false
	}
	seen := make([]bool, g.N())
	stack := make([]int, 1, g.N()) // every node is pushed at most once
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[v] {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, h.To)
			}
		}
	}
	return count == g.N()
}

// Builder assembles a port-numbered graph. Ports may be assigned in any
// order; the paper's constructions frequently number ports before all
// incident edges exist (for example the roots of the trees T carry ports
// 1..Δ−2 long before port 0 is attached). Build checks that, in the end,
// every node's ports are exactly 0..deg−1.
type Builder struct {
	adj [][]Half // adj[v][p]; unused slots hold Half{To: -1}
	deg []int    // number of ports assigned at each node
	err error
}

// NewBuilder returns a builder for a graph with n initial isolated nodes
// (more can be added).
func NewBuilder(n int) *Builder {
	return &Builder{adj: make([][]Half, n), deg: make([]int, n)}
}

// newBuilderSized returns a builder for len(deg) nodes in which node v has
// deg[v] unused port slots, all carved from one backing array. It takes
// deg over as its own per-node port count.
func newBuilderSized(deg []int) *Builder {
	total := 0
	for _, d := range deg {
		total += d
	}
	slots := make([]Half, total)
	for i := range slots {
		slots[i].To = -1
	}
	adj := make([][]Half, len(deg))
	for v, d := range deg {
		// The capacity limit keeps a growing slice from spilling into the
		// next node's slots.
		adj[v], slots = slots[:d:d], slots[d:]
	}
	clear(deg)
	return &Builder{adj: adj, deg: deg}
}

// AddNode adds an isolated node and returns its identifier.
func (b *Builder) AddNode() int {
	b.adj = append(b.adj, nil)
	b.deg = append(b.deg, 0)
	return len(b.adj) - 1
}

// AddNodes adds count isolated nodes and returns the identifier of the first.
func (b *Builder) AddNodes(count int) int {
	first := len(b.adj)
	for i := 0; i < count; i++ {
		b.AddNode()
	}
	return first
}

// N returns the current number of nodes.
func (b *Builder) N() int { return len(b.adj) }

// Degree returns the number of edges attached to node v so far.
func (b *Builder) Degree(v int) int { return b.deg[v] }

// used reports whether port p is already assigned at node v.
func (b *Builder) used(v, p int) bool { return p < len(b.adj[v]) && b.adj[v][p].To >= 0 }

// NextPort returns the smallest port number not yet used at node v.
func (b *Builder) NextPort(v int) int {
	p := 0
	for b.used(v, p) {
		p++
	}
	return p
}

func (b *Builder) setHalf(v, p int, h Half) {
	for len(b.adj[v]) <= p {
		b.adj[v] = append(b.adj[v], Half{To: -1})
	}
	b.adj[v][p] = h
	b.deg[v]++
}

// AddEdge adds the edge {u, v} with explicit port numbers pu at u and pv at v.
func (b *Builder) AddEdge(u, pu, v, pv int) {
	if b.err != nil {
		return
	}
	if u < 0 || u >= len(b.adj) || v < 0 || v >= len(b.adj) {
		b.err = fmt.Errorf("graph: AddEdge(%d,%d,%d,%d): node out of range", u, pu, v, pv)
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: AddEdge: self-loop at node %d", u)
		return
	}
	if pu < 0 || pv < 0 {
		b.err = fmt.Errorf("graph: AddEdge(%d,%d,%d,%d): negative port", u, pu, v, pv)
		return
	}
	if b.used(u, pu) {
		b.err = fmt.Errorf("graph: AddEdge: port %d already used at node %d", pu, u)
		return
	}
	if b.used(v, pv) {
		b.err = fmt.Errorf("graph: AddEdge: port %d already used at node %d", pv, v)
		return
	}
	// Look for an existing {u, v} edge from the endpoint with fewer port
	// slots, so attaching the leaves of a star costs O(1) each.
	from, to := u, v
	if len(b.adj[v]) < len(b.adj[u]) {
		from, to = v, u
	}
	for _, h := range b.adj[from] {
		if h.To == to {
			b.err = fmt.Errorf("graph: AddEdge: parallel edge between %d and %d", u, v)
			return
		}
	}
	b.setHalf(u, pu, Half{To: v, ToPort: pv})
	b.setHalf(v, pv, Half{To: u, ToPort: pu})
}

// AddEdgeAuto adds the edge {u, v} using the smallest free port number at each
// endpoint, and returns those port numbers.
func (b *Builder) AddEdgeAuto(u, v int) (pu, pv int) {
	pu, pv = b.NextPort(u), b.NextPort(v)
	b.AddEdge(u, pu, v, pv)
	return pu, pv
}

// Err returns the first error recorded by the builder, if any.
func (b *Builder) Err() error { return b.err }

// Build validates and returns the constructed graph.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	for v := range b.adj {
		for p, h := range b.adj[v] {
			if h.To < 0 {
				return nil, fmt.Errorf("graph: node %d is missing port %d (ports must be 0..deg-1)", v, p)
			}
		}
	}
	g := &Graph{adj: b.adj}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build but panics on error; intended for constructions whose
// correctness is established by their own tests.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
