package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
)

// CanonicalHash returns a hash that is invariant under vertex relabeling for
// the overwhelming majority of graphs (it is a 1-dimensional
// Weisfeiler–Leman color-refinement hash). Two isomorphic graphs always hash
// identically; non-isomorphic graphs collide only if they are 1-WL
// indistinguishable (e.g. some regular graphs). The offline embedding cache
// uses this as a fast lookup key and falls back to exact isomorphism
// checking on hash hits.
func CanonicalHash(g *Graph) string {
	n := g.Order()
	// One scratch slice holds the colours, the next colours and the longest
	// neighbour signature plus the vertex's own colour.
	scratch := make([]uint64, 2*n+g.MaxDegree()+1)
	color, next, sig := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for v := 0; v < n; v++ {
		color[v] = uint64(len(g.adj[v]))
	}
	// Refine up to n rounds or until stable.
	for round := 0; round < n; round++ {
		changed := false
		for v, ns := range g.adj {
			s := sig[:len(ns)+1]
			for i, u := range ns {
				s[i] = color[u]
			}
			slices.Sort(s[:len(ns)]) // an insertion sort at a degree's length
			s[len(ns)] = color[v]
			next[v] = hashUint64s(s)
			if next[v] != color[v] {
				changed = true
			}
		}
		color, next = next, color
		if !changed {
			break
		}
	}
	slices.Sort(color)
	buf := make([]byte, 8*(n+2))
	for i, x := range color {
		binary.LittleEndian.PutUint64(buf[8*i:], x)
	}
	binary.LittleEndian.PutUint64(buf[8*n:], uint64(n))
	binary.LittleEndian.PutUint64(buf[8*n+8:], uint64(g.Size()))
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

func hashUint64s(xs []uint64) uint64 {
	// FNV-1a over the little-endian bytes.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	return h
}

// Isomorphic reports whether g and h are isomorphic, using exhaustive
// backtracking with degree pruning. Intended for the small graphs (n ≲ 12)
// that the offline embedding cache stores; larger inputs still terminate but
// may be slow.
func Isomorphic(g, h *Graph) bool {
	if g.Order() != h.Order() || g.Size() != h.Size() {
		return false
	}
	n := g.Order()
	if n == 0 {
		return true
	}
	if !sameDegreeSequence(g, h) {
		return false
	}
	// Order g's vertices by descending degree for early pruning.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })

	mapping := make([]int, n) // g vertex -> h vertex
	used := make([]bool, n)
	for i := range mapping {
		mapping[i] = -1
	}

	var try func(idx int) bool
	try = func(idx int) bool {
		if idx == n {
			return true
		}
		v := order[idx]
		for w := 0; w < n; w++ {
			if used[w] || g.Degree(v) != h.Degree(w) {
				continue
			}
			ok := true
			for _, u := range g.Neighbors(v) {
				if mu := mapping[u]; mu != -1 && !h.HasEdge(w, mu) {
					ok = false
					break
				}
			}
			if ok {
				// Also require that mapped non-neighbors stay non-adjacent
				// (edge counts are equal, so edge preservation in one
				// direction plus a bijection suffices; check anyway for
				// earlier pruning).
				for prev := 0; prev < idx; prev++ {
					pv := order[prev]
					if !g.HasEdge(v, pv) && h.HasEdge(w, mapping[pv]) {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			mapping[v] = w
			used[w] = true
			if try(idx + 1) {
				return true
			}
			mapping[v] = -1
			used[w] = false
		}
		return false
	}
	return try(0)
}

func sameDegreeSequence(g, h *Graph) bool {
	dg := make([]int, g.Order())
	dh := make([]int, h.Order())
	for i := range dg {
		dg[i] = g.Degree(i)
		dh[i] = h.Degree(i)
	}
	sort.Ints(dg)
	sort.Ints(dh)
	for i := range dg {
		if dg[i] != dh[i] {
			return false
		}
	}
	return true
}

// FindIsomorphism returns a vertex bijection mapping g onto h, or nil if none
// exists. Same algorithmic caveats as Isomorphic.
func FindIsomorphism(g, h *Graph) []int {
	if g.Order() != h.Order() || g.Size() != h.Size() || !sameDegreeSequence(g, h) {
		return nil
	}
	n := g.Order()
	mapping := make([]int, n)
	used := make([]bool, n)
	for i := range mapping {
		mapping[i] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })

	var try func(idx int) bool
	try = func(idx int) bool {
		if idx == n {
			return true
		}
		v := order[idx]
		for w := 0; w < n; w++ {
			if used[w] || g.Degree(v) != h.Degree(w) {
				continue
			}
			ok := true
			for prev := 0; prev < idx; prev++ {
				pv := order[prev]
				if g.HasEdge(v, pv) != h.HasEdge(w, mapping[pv]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[v] = w
			used[w] = true
			if try(idx + 1) {
				return true
			}
			mapping[v] = -1
			used[w] = false
		}
		return false
	}
	if try(0) {
		return mapping
	}
	return nil
}
