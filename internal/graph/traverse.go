package graph

import "container/heap"

// BFS performs a breadth-first search from src and returns the distance (in
// edges) to every vertex; unreachable vertices get distance -1.
func BFS(g *Graph, src int) []int {
	dist := make([]int, g.Order())
	for i := range dist {
		dist[i] = -1
	}
	if !g.HasVertex(src) {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Components returns the connected components of g as vertex lists, and a
// label slice mapping each vertex to its component index.
func Components(g *Graph) ([][]int, []int) {
	label := make([]int, g.Order())
	for i := range label {
		label[i] = -1
	}
	var comps [][]int
	for s := 0; s < g.Order(); s++ {
		if label[s] != -1 {
			continue
		}
		id := len(comps)
		var comp []int
		stack := []int{s}
		label[s] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, u := range g.Neighbors(v) {
				if label[u] == -1 {
					label[u] = id
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps, label
}

// IsConnected reports whether g is connected (vacuously true for n <= 1).
func IsConnected(g *Graph) bool {
	if g.Order() <= 1 {
		return true
	}
	comps, _ := Components(g)
	return len(comps) == 1
}

// ConnectedSubset reports whether the vertex subset s induces a connected
// subgraph of g. An empty subset is considered disconnected. Membership is
// a linear scan of s, since the subsets it checks are chains a few qubits
// long; up to 64 vertices it does not allocate.
func ConnectedSubset(g *Graph, s []int) bool {
	if len(s) == 0 {
		return false
	}
	var reachedBuf [64]bool
	var queueBuf [64]int
	reached, queue := reachedBuf[:], queueBuf[:0]
	if len(s) > len(reachedBuf) {
		reached, queue = make([]bool, len(s)), make([]int, 0, len(s))
	}
	// reach marks every position of s holding v, a duplicate included, and
	// queues v once.
	count := 0
	reach := func(v int) {
		queued := false
		for j, x := range s {
			if x == v && !reached[j] {
				reached[j] = true
				count++
				if !queued {
					queue = append(queue, v)
					queued = true
				}
			}
		}
	}
	reach(s[0])
	for i := 0; i < len(queue); i++ {
		for _, u := range g.Neighbors(queue[i]) {
			reach(u)
		}
	}
	return count == len(s)
}

// Inf is the distance reported by Dijkstra for unreachable vertices.
const Inf = int(^uint(0) >> 2)

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	v    int
	dist int
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest paths from src with per-vertex
// weights (the cost of entering a vertex), as used by the Cai–Macready–Roy
// embedding heuristic. weight[v] must be >= 0; vertices with weight[v] ==
// Blocked are impassable. It returns dist (Inf when unreachable) and parent
// (-1 at roots/unreachable vertices).
//
// The source's own weight is not charged, matching CMR's "cost of reaching v
// from the root's component" formulation.
func Dijkstra(g *Graph, src int, weight []int) (dist, parent []int) {
	n := g.Order()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	if !g.HasVertex(src) || weight[src] == Blocked {
		return
	}
	dist[src] = 0
	h := &pq{{v: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		for _, u := range g.Neighbors(it.v) {
			if weight[u] == Blocked {
				continue
			}
			nd := it.dist + weight[u]
			if nd < dist[u] {
				dist[u] = nd
				parent[u] = it.v
				heap.Push(h, pqItem{v: u, dist: nd})
			}
		}
	}
	return
}

// Blocked marks impassable vertices for Dijkstra.
const Blocked = -1

// PathTo reconstructs the path from the Dijkstra source to v using the parent
// slice, returned in source→v order. It returns nil if v was unreachable.
func PathTo(parent []int, v int, dist []int) []int {
	if dist[v] == Inf {
		return nil
	}
	var rev []int
	for x := v; x != -1; x = parent[x] {
		rev = append(rev, x)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Eccentricity returns the BFS eccentricity of v (max distance to any
// reachable vertex).
func Eccentricity(g *Graph, v int) int {
	max := 0
	for _, d := range BFS(g, v) {
		if d > max {
			max = d
		}
	}
	return max
}
