// Package graph provides the undirected-graph substrate used throughout the
// split-execution system: adjacency structures, the Chimera hardware topology
// of D-Wave-style quantum annealers, standard graph generators, shortest
// paths, connectivity, and minor-embedding validation primitives.
//
// Vertices are dense integers in [0, Order()). Edges are unordered pairs.
// All graphs in this package are simple (no self-loops, no multi-edges).
package graph

import (
	"fmt"
	"sort"
)

// Edge is an unordered pair of vertices. Normalized edges satisfy U < V.
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints ordered so that U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// Graph is an undirected simple graph over vertices 0..n-1 stored as sorted
// adjacency lists, one per vertex. The zero value is an empty graph with no
// vertices.
type Graph struct {
	adj [][]int // adj[v] is v's sorted neighbor list; len(adj) is the order
	m   int
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{adj: make([][]int, n)}
}

// Order returns the number of vertices.
func (g *Graph) Order() int { return len(g.adj) }

// Size returns the number of edges.
func (g *Graph) Size() int { return g.m }

// HasVertex reports whether v is a vertex of g.
func (g *Graph) HasVertex(v int) bool { return v >= 0 && v < len(g.adj) }

// AddVertex grows the vertex set so that v is a valid vertex, returning the
// new order of the graph.
func (g *Graph) AddVertex(v int) int {
	if v >= len(g.adj) {
		g.adj = append(g.adj, make([][]int, v+1-len(g.adj))...)
	}
	return len(g.adj)
}

// AddEdge inserts the undirected edge {u,v}. It is a no-op for self-loops and
// duplicate edges. Vertices are grown as needed.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 {
		return
	}
	if g.HasEdge(u, v) {
		return
	}
	g.AddVertex(u)
	g.AddVertex(v)
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.m++
}

// RemoveEdge deletes the undirected edge {u,v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	if !g.HasEdge(u, v) {
		return
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.m--
}

// HasEdge reports whether the undirected edge {u,v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.Neighbors(u)
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Degree returns the number of neighbors of v (0 if v is not a vertex).
func (g *Graph) Degree(v int) int { return len(g.Neighbors(v)) }

// Neighbors returns the sorted neighbor list of v, or nil if v is not a
// vertex. The returned slice is shared with the graph and must not be
// modified.
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= len(g.adj) {
		return nil
	}
	return g.adj[v]
}

// Edges returns all edges, normalized and sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return es
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(len(g.adj))
	c.m = g.m
	for v, ns := range g.adj {
		c.adj[v] = append([]int(nil), ns...)
	}
	return c
}

// MaxDegree returns the largest vertex degree in g (0 for edgeless graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, ns := range g.adj {
		if len(ns) > max {
			max = len(ns)
		}
	}
	return max
}

// RemoveVertex deletes all edges incident to v. The vertex identifier itself
// remains valid (graphs use a dense vertex space), but becomes isolated.
func (g *Graph) RemoveVertex(v int) {
	ns := g.Neighbors(v)
	if len(ns) == 0 {
		return
	}
	for _, u := range ns {
		g.adj[u] = removeSorted(g.adj[u], v)
	}
	g.m -= len(ns)
	g.adj[v] = ns[:0]
}

// InducedSubgraph returns the subgraph induced by keep, relabeled to
// 0..len(keep)-1 in the order given, together with the mapping from new
// labels back to original vertices.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	index := make(map[int]int, len(keep))
	for i, v := range keep {
		index[v] = i
	}
	sub := New(len(keep))
	for i, v := range keep {
		for _, u := range g.Neighbors(v) {
			if j, ok := index[u]; ok && i < j {
				sub.AddEdge(i, j)
			}
		}
	}
	back := append([]int(nil), keep...)
	return sub, back
}

// String renders a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", len(g.adj), g.m)
}

// Equal reports whether g and h have identical vertex counts and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if len(g.adj) != len(h.adj) || g.m != h.m {
		return false
	}
	for v, ns := range g.adj {
		hs := h.adj[v]
		if len(ns) != len(hs) {
			return false
		}
		for i := range ns {
			if ns[i] != hs[i] {
				return false
			}
		}
	}
	return true
}

// AdjacencyMatrix returns the dense 0/1 adjacency matrix of g.
func (g *Graph) AdjacencyMatrix() [][]float64 {
	a := make([][]float64, len(g.adj))
	for i := range a {
		a[i] = make([]float64, len(g.adj))
	}
	for u, ns := range g.adj {
		for _, v := range ns {
			a[u][v] = 1
		}
	}
	return a
}

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	g := New(n)
	for _, e := range edges {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// FromAdjacency builds a graph from a dense symmetric adjacency/weight
// matrix; any nonzero entry (i<j) becomes an edge.
func FromAdjacency(a [][]float64) *Graph {
	g := New(len(a))
	for i := range a {
		for j := i + 1; j < len(a[i]); j++ {
			if a[i][j] != 0 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func insertSorted(a []int, x int) []int {
	i := sort.SearchInts(a, x)
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = x
	return a
}

func removeSorted(a []int, x int) []int {
	i := sort.SearchInts(a, x)
	if i < len(a) && a[i] == x {
		return append(a[:i], a[i+1:]...)
	}
	return a
}
