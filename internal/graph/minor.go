package graph

import (
	"fmt"
	"sort"
)

// VertexModel maps each logical vertex of an input graph G to the set of
// hardware vertices (its "chain" or subtree) that represent it under a minor
// embedding φ: G → H. Chains are stored sorted.
type VertexModel map[int][]int

// Clone deep-copies the vertex model.
func (vm VertexModel) Clone() VertexModel {
	c := make(VertexModel, len(vm))
	for k, v := range vm {
		c[k] = append([]int(nil), v...)
	}
	return c
}

// PhysicalQubits returns the total number of hardware vertices used across
// all chains (the size of φ(G)).
func (vm VertexModel) PhysicalQubits() int {
	n := 0
	for _, chain := range vm {
		n += len(chain)
	}
	return n
}

// MaxChainLength returns the length of the longest chain.
func (vm VertexModel) MaxChainLength() int {
	max := 0
	for _, chain := range vm {
		if len(chain) > max {
			max = len(chain)
		}
	}
	return max
}

// Chain returns the sorted chain for logical vertex v (nil if unmapped).
func (vm VertexModel) Chain(v int) []int { return vm[v] }

// OwnerMap returns a map from every used hardware vertex to the logical
// vertex whose chain contains it, or an error if two chains overlap.
func (vm VertexModel) OwnerMap() (map[int]int, error) {
	owner := make(map[int]int, vm.PhysicalQubits())
	// Iterate logical vertices in sorted order for deterministic errors.
	logical := make([]int, 0, len(vm))
	for v := range vm {
		logical = append(logical, v)
	}
	sort.Ints(logical)
	for _, v := range logical {
		for _, q := range vm[v] {
			if prev, ok := owner[q]; ok {
				return nil, fmt.Errorf("graph: chains for logical vertices %d and %d both use hardware vertex %d", prev, v, q)
			}
			owner[q] = v
		}
	}
	return owner, nil
}

// ValidateMinor checks that vm is a valid minor embedding of g into hw:
//  1. every vertex of g with at least one incident edge (and every vertex
//     when requireAll is set) is mapped to a non-empty chain,
//  2. chains are pairwise disjoint,
//  3. every chain induces a connected subgraph of hw,
//  4. for every edge {u,v} of g there is at least one hw edge between the
//     chains of u and v.
//
// It returns nil when the embedding is valid.
func ValidateMinor(g, hw *Graph, vm VertexModel, requireAll bool) error {
	for v := 0; v < g.Order(); v++ {
		chain := vm[v]
		if len(chain) == 0 {
			if requireAll || g.Degree(v) > 0 {
				return fmt.Errorf("graph: logical vertex %d has an empty chain", v)
			}
			continue
		}
		for _, q := range chain {
			if !hw.HasVertex(q) {
				return fmt.Errorf("graph: chain of %d uses nonexistent hardware vertex %d", v, q)
			}
		}
		if !ConnectedSubset(hw, chain) {
			return fmt.Errorf("graph: chain of logical vertex %d is not connected in hardware: %v", v, chain)
		}
	}
	owner, err := vm.OwnerMap()
	if err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if !chainsAdjacent(hw, owner, vm[e.U], e.V) {
			return fmt.Errorf("graph: logical edge {%d,%d} has no hardware coupler between chains", e.U, e.V)
		}
	}
	return nil
}

// chainsAdjacent reports whether any hw edge joins a vertex of chain a to
// one of logical vertex b's chain, given the owner map of disjoint chains.
func chainsAdjacent(hw *Graph, owner map[int]int, a []int, b int) bool {
	for _, q := range a {
		for _, u := range hw.Neighbors(q) {
			if o, ok := owner[u]; ok && o == b {
				return true
			}
		}
	}
	return false
}

// ChainEdges returns, for each logical vertex, the hardware edges internal to
// its chain (edges of a spanning structure within the chain's induced
// subgraph). These are the edges that receive the strong ferromagnetic
// coupling during parameter setting.
func ChainEdges(hw *Graph, vm VertexModel) map[int][]Edge {
	out := make(map[int][]Edge, len(vm))
	for v, chain := range vm {
		in := make(map[int]bool, len(chain))
		for _, q := range chain {
			in[q] = true
		}
		var es []Edge
		for _, q := range chain {
			for _, u := range hw.Neighbors(q) {
				if q < u && in[u] {
					es = append(es, Edge{U: q, V: u})
				}
			}
		}
		out[v] = es
	}
	return out
}

// ContractMinor contracts each chain of vm to a single vertex and returns the
// resulting graph over logical labels 0..len(vm)-1 (assuming vm maps the
// dense logical space). Used to verify that φ(G) contains G as a subgraph.
func ContractMinor(hw *Graph, vm VertexModel, logicalOrder int) (*Graph, error) {
	owner, err := vm.OwnerMap()
	if err != nil {
		return nil, err
	}
	g := New(logicalOrder)
	for _, e := range hw.Edges() {
		ou, okU := owner[e.U]
		ov, okV := owner[e.V]
		if okU && okV && ou != ov {
			g.AddEdge(ou, ov)
		}
	}
	return g, nil
}

// IsSubgraphOf reports whether every edge of g is also an edge of h (with
// identical labels) and g has no more vertices than h.
func IsSubgraphOf(g, h *Graph) bool {
	if g.Order() > h.Order() {
		return false
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}
