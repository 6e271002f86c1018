package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmptyGraph(t *testing.T) {
	g := New(5)
	if g.Order() != 5 {
		t.Fatalf("Order = %d, want 5", g.Order())
	}
	if g.Size() != 0 {
		t.Fatalf("Size = %d, want 0", g.Size())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", v, g.Degree(v))
		}
	}
}

func TestZeroValueGraphUsable(t *testing.T) {
	var g Graph
	if g.Order() != 0 || g.Size() != 0 {
		t.Fatalf("zero graph not empty: %v", &g)
	}
	if g.HasEdge(0, 1) {
		t.Error("zero graph claims edge")
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing or not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("spurious edge {0,2}")
	}
	if g.Size() != 2 {
		t.Errorf("Size = %d, want 2", g.Size())
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
}

func TestAddEdgeIgnoresSelfLoopsAndDuplicates(t *testing.T) {
	g := New(3)
	g.AddEdge(1, 1)
	if g.Size() != 0 {
		t.Error("self-loop was added")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(0, 1)
	if g.Size() != 1 {
		t.Errorf("duplicate edges counted: Size = %d", g.Size())
	}
}

func TestAddEdgeGrowsVertexSet(t *testing.T) {
	g := New(1)
	g.AddEdge(0, 7)
	if g.Order() != 8 {
		t.Errorf("Order = %d, want 8", g.Order())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Complete(4)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Error("edge {0,1} still present")
	}
	if g.Size() != 5 {
		t.Errorf("Size = %d, want 5", g.Size())
	}
	g.RemoveEdge(0, 1) // no-op
	if g.Size() != 5 {
		t.Errorf("double remove changed size: %d", g.Size())
	}
}

func TestRemoveVertexIsolates(t *testing.T) {
	g := Complete(4)
	g.RemoveVertex(2)
	if g.Degree(2) != 0 {
		t.Errorf("Degree(2) = %d after removal", g.Degree(2))
	}
	if g.Size() != 3 {
		t.Errorf("Size = %d, want 3 (K3 on {0,1,3})", g.Size())
	}
	if g.Order() != 4 {
		t.Errorf("Order changed: %d", g.Order())
	}
}

func TestEdgesSortedNormalized(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1)
	g.AddEdge(2, 0)
	es := g.Edges()
	if len(es) != 2 {
		t.Fatalf("len(Edges) = %d", len(es))
	}
	if es[0] != (Edge{0, 2}) || es[1] != (Edge{1, 3}) {
		t.Errorf("Edges = %v", es)
	}
}

func TestEdgeNormalizeAndOther(t *testing.T) {
	e := Edge{5, 2}.Normalize()
	if e != (Edge{2, 5}) {
		t.Errorf("Normalize = %v", e)
	}
	if e.Other(2) != 5 || e.Other(5) != 2 {
		t.Error("Other endpoints wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with non-endpoint did not panic")
		}
	}()
	e.Other(9)
}

func TestCloneIndependence(t *testing.T) {
	g := Complete(4)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("Clone shares storage with original")
	}
	if !g.Equal(g.Clone()) {
		t.Error("clone not Equal to original")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, back := g.InducedSubgraph([]int{1, 3, 4})
	if sub.Order() != 3 || sub.Size() != 3 {
		t.Fatalf("induced K3 wrong: %v", sub)
	}
	if back[0] != 1 || back[1] != 3 || back[2] != 4 {
		t.Errorf("back map = %v", back)
	}
}

func TestFromAdjacencyRoundTrip(t *testing.T) {
	g := GNP(12, 0.4, rand.New(rand.NewSource(1)))
	h := FromAdjacency(g.AdjacencyMatrix())
	if !g.Equal(h) {
		t.Error("adjacency round trip mismatch")
	}
}

func TestGeneratorsCounts(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"K5", Complete(5), 5, 10},
		{"K1", Complete(1), 1, 0},
		{"C6", Cycle(6), 6, 6},
		{"C2-empty", Cycle(2), 2, 0},
		{"P4", Path(4), 4, 3},
		{"Star5", Star(5), 5, 4},
		{"Grid3x4", Grid(3, 4), 12, 17},
		{"K23", CompleteBipartite(2, 3), 5, 6},
	}
	for _, c := range cases {
		if c.g.Order() != c.n || c.g.Size() != c.m {
			t.Errorf("%s: got (n=%d,m=%d), want (%d,%d)", c.name, c.g.Order(), c.g.Size(), c.n, c.m)
		}
	}
}

func TestGNPExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if g := GNP(10, 0, rng); g.Size() != 0 {
		t.Errorf("GNP(10,0) has %d edges", g.Size())
	}
	if g := GNP(10, 1, rng); g.Size() != 45 {
		t.Errorf("GNP(10,1) has %d edges, want 45", g.Size())
	}
}

func TestGNMExactEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := GNM(10, 17, rng)
	if g.Size() != 17 {
		t.Errorf("GNM size = %d, want 17", g.Size())
	}
	// Clamp to max.
	g = GNM(4, 100, rng)
	if g.Size() != 6 {
		t.Errorf("GNM clamp = %d, want 6", g.Size())
	}
}

func TestRandomRegularishDegreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomRegularish(30, 3, rng)
	for v := 0; v < g.Order(); v++ {
		if g.Degree(v) > 3 {
			t.Fatalf("degree(%d) = %d exceeds bound", v, g.Degree(v))
		}
	}
	if g.Size() == 0 {
		t.Error("regularish graph has no edges")
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(5)
	d := BFS(g, 0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	d := BFS(g, 0)
	if d[2] != -1 || d[3] != -1 {
		t.Errorf("unreachable distances: %v", d)
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	comps, label := Components(g)
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4 (two edges + two isolated)", len(comps))
	}
	if label[0] != label[1] || label[2] != label[3] || label[0] == label[2] {
		t.Errorf("labels wrong: %v", label)
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(Complete(6)) {
		t.Error("K6 not connected")
	}
	if !IsConnected(New(0)) || !IsConnected(New(1)) {
		t.Error("trivial graphs should be connected")
	}
	g := New(3)
	g.AddEdge(0, 1)
	if IsConnected(g) {
		t.Error("graph with isolated vertex reported connected")
	}
}

func TestConnectedSubset(t *testing.T) {
	g := Path(6)
	if !ConnectedSubset(g, []int{1, 2, 3}) {
		t.Error("contiguous path subset should be connected")
	}
	if ConnectedSubset(g, []int{0, 2}) {
		t.Error("gap subset should be disconnected")
	}
	if ConnectedSubset(g, nil) {
		t.Error("empty subset should be disconnected")
	}
	if !ConnectedSubset(g, []int{4}) {
		t.Error("singleton should be connected")
	}
	if !ConnectedSubset(g, []int{3, 2, 3}) || ConnectedSubset(g, []int{0, 0, 2}) {
		t.Error("a repeated vertex changed connectivity")
	}
	// Past 64 vertices the subset's marks no longer fit on the stack.
	long := Path(100)
	all := make([]int, 100)
	for i := range all {
		all[i] = 99 - i
	}
	if !ConnectedSubset(long, all) {
		t.Error("a whole 100-vertex path should be connected")
	}
	if ConnectedSubset(long, append(all[:50:50], all[51:]...)) {
		t.Error("a 100-vertex path missing a middle vertex should be disconnected")
	}
}

func TestDijkstraUnitWeights(t *testing.T) {
	g := Cycle(6)
	w := make([]int, 6)
	for i := range w {
		w[i] = 1
	}
	dist, parent := Dijkstra(g, 0, w)
	if dist[3] != 3 {
		t.Errorf("dist[3] = %d, want 3", dist[3])
	}
	p := PathTo(parent, 3, dist)
	if len(p) != 4 || p[0] != 0 || p[3] != 3 {
		t.Errorf("path = %v", p)
	}
}

func TestDijkstraWeightedDetour(t *testing.T) {
	// 0-1-2 direct but expensive via 1; 0-3-4-2 cheap.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	w := []int{1, 100, 1, 1, 1}
	dist, parent := Dijkstra(g, 0, w)
	if dist[2] != 3 {
		t.Errorf("dist[2] = %d, want 3 (detour)", dist[2])
	}
	p := PathTo(parent, 2, dist)
	want := []int{0, 3, 4, 2}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestDijkstraBlocked(t *testing.T) {
	g := Path(3)
	w := []int{1, Blocked, 1}
	dist, _ := Dijkstra(g, 0, w)
	if dist[2] != Inf {
		t.Errorf("dist through blocked vertex = %d, want Inf", dist[2])
	}
	// Blocked source: everything unreachable.
	dist, _ = Dijkstra(g, 1, w)
	if dist[0] != Inf || dist[1] != Inf {
		t.Error("blocked source should reach nothing")
	}
}

func TestPathToUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	w := []int{1, 1, 1}
	dist, parent := Dijkstra(g, 0, w)
	if p := PathTo(parent, 2, dist); p != nil {
		t.Errorf("path to unreachable = %v", p)
	}
}

func TestEccentricity(t *testing.T) {
	if e := Eccentricity(Path(5), 0); e != 4 {
		t.Errorf("ecc = %d, want 4", e)
	}
	if e := Eccentricity(Path(5), 2); e != 2 {
		t.Errorf("center ecc = %d, want 2", e)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d", uf.Sets())
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Error("first unions should merge")
	}
	if uf.Union(1, 0) {
		t.Error("repeat union should not merge")
	}
	if !uf.Connected(0, 1) || uf.Connected(0, 2) {
		t.Error("connectivity wrong")
	}
	uf.Union(1, 3)
	if !uf.Connected(0, 2) {
		t.Error("transitive connectivity wrong")
	}
	if uf.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", uf.Sets())
	}
}

// Property: BFS distances obey the triangle rule |d(u)-d(v)| <= 1 across any
// edge of a connected random graph.
func TestBFSEdgeLipschitzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(20, 0.3, rng)
		d := BFS(g, 0)
		for _, e := range g.Edges() {
			du, dv := d[e.U], d[e.V]
			if du == -1 || dv == -1 {
				continue
			}
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: union-find component count matches DFS component count.
func TestUnionFindMatchesComponents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := GNP(25, 0.08, rng)
		uf := NewUnionFind(g.Order())
		for _, e := range g.Edges() {
			uf.Union(e.U, e.V)
		}
		comps, _ := Components(g)
		return uf.Sets() == len(comps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
