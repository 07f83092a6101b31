package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// jsonGraph is the on-disk JSON representation of a port-numbered graph.
type jsonGraph struct {
	N     int        `json:"n"`
	Edges []jsonEdge `json:"edges"`
}

type jsonEdge struct {
	U  int `json:"u"`
	PU int `json:"pu"`
	V  int `json:"v"`
	PV int `json:"pv"`
}

// MarshalJSON encodes the graph in a stable, human-readable JSON form.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{N: g.N()}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, jsonEdge{U: e.U, PU: e.PU, V: e.V, PV: e.PV})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a graph written by MarshalJSON and validates it.
// It reads the wire form in one pass and accepts exactly the documents
// encoding/json would decode into it (see jsonReader); n must be at most
// one more than the number of edges, as in every connected graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	r := jsonReader{data: data}
	n, edges, err := r.graph()
	if err != nil {
		return fmt.Errorf("graph: invalid JSON graph: %w", err)
	}
	built, err := buildFromEdges(n, edges)
	if err != nil {
		return fmt.Errorf("graph: invalid JSON graph: %w", err)
	}
	g.adj = built.adj
	return nil
}

// WriteJSON writes the graph to w as JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadJSON reads and validates a graph from r.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var g Graph
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &g, nil
}

// DOT renders the graph in Graphviz DOT format. Port numbers appear as
// taillabel/headlabel attributes, matching the figures in the paper. The
// optional labels map overrides node labels (useful for marking roots, cycle
// nodes, leaders and so on when regenerating figures).
func (g *Graph) DOT(name string, labels map[int]string) string {
	var sb strings.Builder
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(&sb, "graph %q {\n", name)
	sb.WriteString("  node [shape=circle, fontsize=10];\n")
	sb.WriteString("  edge [fontsize=8];\n")
	ids := make([]int, 0, len(labels))
	for id := range labels {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&sb, "  %d [label=%q];\n", id, labels[id])
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "  %d -- %d [taillabel=\"%d\", headlabel=\"%d\"];\n", e.U, e.V, e.PU, e.PV)
	}
	sb.WriteString("}\n")
	return sb.String()
}
