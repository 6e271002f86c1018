package graph

import (
	"sort"
	"testing"
)

// refGraph is the reference model FuzzGraphOps checks Graph against: an
// order and a set of normalized edges.
type refGraph struct {
	n     int
	edges map[Edge]bool
}

func (r *refGraph) neighbors(v int) []int {
	var ns []int
	for e := range r.edges {
		if e.U == v {
			ns = append(ns, e.V)
		} else if e.V == v {
			ns = append(ns, e.U)
		}
	}
	sort.Ints(ns)
	return ns
}

// FuzzGraphOps decodes bytes into AddEdge/RemoveEdge/RemoveVertex/AddVertex
// operations, negative and out-of-range indices included, and after every
// operation checks each read of the graph against the reference edge set.
// Out-of-range reads must return nil/0/false: program validation and
// InducedSubgraph look up vertices they have not range-checked. The graph
// starts empty or as a small Chimera topology, and an operation can swap it
// for its clone, so edits also run on lists that share one backing array.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{3})
	f.Add([]byte{4, 0, 0, 1, 0, 1, 2, 0, 2, 0, 1, 0, 2, 2, 1, 0})
	f.Add([]byte{0, 0, 5, 9, 3, 12, 0, 2, 5, 0, 1, 9, 5})
	f.Add([]byte{2, 0, 0xff, 1, 0, 0, 0xf0, 3, 0x80, 0, 2, 0x7f, 0, 0, 0x7f, 0x10})
	f.Add([]byte{8, 0, 1, 2, 0, 2, 3, 0, 3, 1, 2, 3, 0, 0, 1, 3, 0, 2, 1})
	f.Add([]byte{0x80, 0, 0, 9, 1, 0, 4, 2, 5, 0, 4, 0, 0, 0, 1, 0})
	f.Add([]byte{5, 0, 0, 1, 0, 1, 2, 4, 0, 0, 0, 0, 2, 0, 0, 3, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g, ref := New(int(data[0]%16)), &refGraph{edges: map[Edge]bool{}}
		if data[0]&0x80 != 0 {
			c := Chimera{M: 1, N: 2, L: 2}
			g = c.Graph()
			for _, e := range chimeraByEdges(c).Edges() {
				ref.edges[e] = true
			}
		}
		ref.n = g.Order()
		checkAgainstRef(t, g, ref, "New")
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			// Indices span -19..19, so they leave the vertex range on both sides.
			u, v := int(int8(ops[1]))%20, int(int8(ops[2]))%20
			var op string
			switch ops[0] % 5 {
			case 0:
				op = "AddEdge"
				g.AddEdge(u, v)
				if u != v && u >= 0 && v >= 0 {
					ref.n = max(ref.n, u+1, v+1)
					ref.edges[Edge{U: u, V: v}.Normalize()] = true
				}
			case 1:
				op = "RemoveEdge"
				g.RemoveEdge(u, v)
				delete(ref.edges, Edge{U: u, V: v}.Normalize())
			case 2:
				op = "RemoveVertex"
				g.RemoveVertex(u)
				for e := range ref.edges {
					if e.U == u || e.V == u {
						delete(ref.edges, e)
					}
				}
			case 3:
				op = "AddVertex"
				got := g.AddVertex(u)
				ref.n = max(ref.n, u+1)
				if got != ref.n {
					t.Fatalf("AddVertex(%d) = %d, want %d", u, got, ref.n)
				}
			case 4:
				op = "Clone"
				g = g.Clone()
			}
			checkAgainstRef(t, g, ref, op)
		}
	})
}

func checkAgainstRef(t *testing.T, g *Graph, ref *refGraph, op string) {
	t.Helper()
	if g.Order() != ref.n || g.Size() != len(ref.edges) {
		t.Fatalf("after %s: order/size %d/%d, want %d/%d", op, g.Order(), g.Size(), ref.n, len(ref.edges))
	}
	maxDeg := 0
	for v := -3; v < ref.n+3; v++ {
		ns, want := g.Neighbors(v), ref.neighbors(v)
		in := v >= 0 && v < ref.n
		if !in && (ns != nil || g.Degree(v) != 0 || g.HasVertex(v)) {
			t.Fatalf("after %s: out-of-range vertex %d reads neighbors %v, degree %d", op, v, ns, g.Degree(v))
		}
		if in && !g.HasVertex(v) {
			t.Fatalf("after %s: vertex %d missing", op, v)
		}
		if len(ns) != len(want) || g.Degree(v) != len(want) {
			t.Fatalf("after %s: neighbors of %d = %v (degree %d), want %v", op, v, ns, g.Degree(v), want)
		}
		for i := range ns {
			if ns[i] != want[i] {
				t.Fatalf("after %s: neighbors of %d = %v, want %v", op, v, ns, want)
			}
		}
		maxDeg = max(maxDeg, len(want))
		for u := -3; u < ref.n+3; u++ {
			if g.HasEdge(u, v) != ref.edges[Edge{U: u, V: v}.Normalize()] {
				t.Fatalf("after %s: HasEdge(%d, %d) = %v", op, u, v, g.HasEdge(u, v))
			}
		}
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("after %s: MaxDegree = %d, want %d", op, g.MaxDegree(), maxDeg)
	}
	es := g.Edges()
	if len(es) != len(ref.edges) {
		t.Fatalf("after %s: %d edges listed, want %d", op, len(es), len(ref.edges))
	}
	for i, e := range es {
		if !ref.edges[e] || e.U >= e.V || (i > 0 && (es[i-1].U > e.U || es[i-1].U == e.U && es[i-1].V >= e.V)) {
			t.Fatalf("after %s: Edges() = %v is not the sorted normalized edge set", op, es)
		}
	}
	c := g.Clone()
	if !c.Equal(g) || !g.Equal(c) || !FromEdges(ref.n, es).Equal(g) {
		t.Fatalf("after %s: clone or rebuild differs from %v", op, g)
	}
	if len(es) > 0 {
		e := es[0]
		c.RemoveEdge(e.U, e.V)
		if !g.HasEdge(e.U, e.V) || g.Size() != len(ref.edges) || c.Equal(g) {
			t.Fatalf("after %s: mutating the clone changed the original", op)
		}
	}
	if g.Equal(New(ref.n + 1)) {
		t.Fatalf("after %s: Equal ignores order", op)
	}
}
