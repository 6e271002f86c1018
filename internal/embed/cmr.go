// Package embed implements minor graph embedding of logical Ising problems
// into hardware connectivity graphs — the translation step the paper
// identifies as the split-execution bottleneck (stage 1).
//
// Three embedding strategies from §2.2 are provided:
//
//   - FindEmbedding: the probabilistic Cai–Macready–Roy heuristic
//     (arXiv:1406.2741) used for the paper's resource model,
//   - CliqueEmbedding: the deterministic Choi-style complete-graph layout
//     (requires ~n²/2 physical qubits for K_n),
//   - SubgraphEmbedding: the brute-force alternative based on subgraph
//     isomorphism, suitable for pre-computing offline lookup tables.
//
// The package also performs parameter setting for the embedded Ising model
// (bias spreading, coupler distribution, chain strength, control precision
// quantization).
package embed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/splitexec/splitexec/internal/graph"
)

// Options configure the CMR embedding heuristic.
type Options struct {
	// MaxTries is the number of independent randomized restarts before the
	// embedder gives up. Default 10.
	MaxTries int
	// MaxIterations bounds the improvement sweeps per try. Default 24.
	MaxIterations int
	// PenaltyBase is the base of the exponential vertex-reuse penalty that
	// drives chains apart during refinement. Default 8.
	PenaltyBase float64
	// Deterministic disables the randomized vertex order (useful in tests).
	Deterministic bool
}

func (o Options) withDefaults() Options {
	if o.MaxTries <= 0 {
		o.MaxTries = 10
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 24
	}
	if o.PenaltyBase <= 1 {
		o.PenaltyBase = 8
	}
	return o
}

// Stats reports the work performed by an embedding run; the split-execution
// performance model converts these counts into time.
type Stats struct {
	Tries        int // randomized restarts consumed
	Sweeps       int // improvement iterations across all tries
	DijkstraRuns int // multi-source shortest-path searches
	// RelaxedEdges counts the edge relaxations the searches would make if
	// each ran to completion: a full search settles every vertex of each
	// hardware component a source lies in and relaxes all of its edges, so
	// each search adds the degree sum of those components. The searches
	// stop once their answer is final and relax fewer, but the count keeps
	// ObservedOps on the paper's per-run cost, EG + NG·log NG. It equals
	// the full run's count while every live qubit's reuse penalty,
	// PenaltyBase^usage, and every path cost stay finite.
	RelaxedEdges   int
	PhysicalQubits int // size of φ(G)
	MaxChainLength int
}

// ErrNoEmbedding is returned when every randomized try fails to produce a
// valid (overlap-free) minor embedding.
var ErrNoEmbedding = errors.New("embed: no embedding found")

// FindEmbedding runs the Cai–Macready–Roy heuristic to embed the input graph
// g into the hardware graph hw. The result maps every vertex of g (including
// isolated ones) to a chain of hardware vertices. It is probabilistic: rng
// drives restarts and vertex orders; failures return ErrNoEmbedding.
func FindEmbedding(g, hw *graph.Graph, rng *rand.Rand, opts Options) (graph.VertexModel, Stats, error) {
	opts = opts.withDefaults()
	var stats Stats
	if g.Order() == 0 {
		return graph.VertexModel{}, stats, nil
	}
	if hw.Order() == 0 {
		return nil, stats, fmt.Errorf("embed: empty hardware graph: %w", ErrNoEmbedding)
	}
	st := newCMRState(g, hw, rng, opts, &stats)
	defer st.release()
	for try := 0; try < opts.MaxTries; try++ {
		stats.Tries++
		vm, ok := st.try()
		if !ok {
			continue
		}
		st.prune(vm)
		if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
			// Defensive: a passing try must validate; treat as failed try.
			continue
		}
		stats.PhysicalQubits = vm.PhysicalQubits()
		stats.MaxChainLength = vm.MaxChainLength()
		return vm, stats, nil
	}
	return nil, stats, ErrNoEmbedding
}

// try performs one randomized embedding attempt, starting from an empty
// embedding.
func (st *cmrState) try() (graph.VertexModel, bool) {
	g, n := st.g, st.g.Order()
	// Embed high-degree vertices first: their chains are hardest to route.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if !st.opts.Deterministic {
		st.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	sortStable(order, func(a, b int) bool { return g.Degree(a) > g.Degree(b) })

	st.reset()

	// Phase 1: initial embedding, overlaps permitted under penalty.
	for _, x := range order {
		st.embedVertex(x)
	}
	// Phase 2: refinement sweeps until overlap-free, stagnant, or out of
	// iterations. A try that stops reducing its overlap count is abandoned
	// early — a fresh randomized restart is more productive than grinding.
	bestOverlap := 1 << 30
	stagnant := 0
	for iter := 0; iter < st.opts.MaxIterations; iter++ {
		st.stats.Sweeps++
		overlap := st.overlapCount()
		if overlap == 0 {
			return st.vm, true
		}
		if overlap < bestOverlap {
			bestOverlap = overlap
			stagnant = 0
		} else {
			stagnant++
			if stagnant >= 6 {
				return nil, false
			}
		}
		for _, x := range order {
			st.removeChain(x)
			st.embedVertex(x)
		}
	}
	if st.overlapCount() == 0 {
		return st.vm, true
	}
	return nil, false
}

// sortStable is a tiny insertion sort keeping rng-shuffled order among
// equals (stable), avoiding a sort.SliceStable closure allocation in the
// hot path of repeated tries.
func sortStable(a []int, less func(x, y int) bool) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// cmrState is the working state of one FindEmbedding call at a time: the
// embedding of the current try and the scratch its searches reuse, one slot
// per hardware vertex in each buffer. Searches that share one hardware
// graph share nothing else.
type cmrState struct {
	g, hw *graph.Graph
	rng   *rand.Rand
	opts  Options
	stats *Stats
	vm    graph.VertexModel
	usage []int     // how many chains currently use each hardware vertex
	cost  []float64 // vertexCost of each hardware vertex at its current usage

	// comp labels each hardware vertex with its connected component, and
	// compEdges is each component's degree sum: what a full search from
	// inside it relaxes.
	comp      []int32
	compEdges []int

	// dist[i] and pq[i] belong to the i-th root search of chooseRoot, and
	// dist[0] and pq[0] also to connect's search; they grow on demand to
	// the most embedded neighbors a vertex has had.
	dist    [][]float64
	pq      []distHeap
	parent  []int    // connect's search tree
	settled []int32  // how many of chooseRoot's searches settled each vertex
	marked  stampSet // the neighbor chain in embedVertex; the candidate chain in prune
	cand    []int    // prune's candidate chain
}

// statePool recycles states between FindEmbedding calls. A state's buffers
// are as large as the hardware graph: allocating them for every search into
// C(8,8,4) took about 37 KB, more than twice what the rest of the search
// allocates.
var statePool sync.Pool

// newCMRState returns a state for embedding g into hw, taken from statePool
// when one of the right size is free, with hw's components labelled.
func newCMRState(g, hw *graph.Graph, rng *rand.Rand, opts Options, stats *Stats) *cmrState {
	st, _ := statePool.Get().(*cmrState)
	if nh := hw.Order(); st == nil || len(st.usage) != nh {
		st = &cmrState{
			usage:   make([]int, nh),
			cost:    make([]float64, nh),
			comp:    make([]int32, nh),
			parent:  make([]int, nh),
			settled: make([]int32, nh),
			marked:  stampSet{mark: make([]uint32, nh)},
		}
	}
	st.g, st.hw, st.rng, st.opts, st.stats = g, hw, rng, opts, stats
	st.labelComponents()
	return st
}

// labelComponents fills comp and compEdges breadth-first, with parent as
// the queue.
func (st *cmrState) labelComponents() {
	for q := range st.comp {
		st.comp[q] = -1
	}
	st.compEdges = st.compEdges[:0]
	for v := range st.comp {
		if st.comp[v] >= 0 {
			continue
		}
		c, edges := int32(len(st.compEdges)), 0
		st.comp[v] = c
		queue := append(st.parent[:0], v)
		for i := 0; i < len(queue); i++ {
			ns := st.hw.Neighbors(queue[i])
			edges += len(ns)
			for _, w := range ns {
				if st.comp[w] < 0 {
					st.comp[w] = c
					queue = append(queue, w)
				}
			}
		}
		st.compEdges = append(st.compEdges, edges)
	}
}

// release drops st's references to the caller's values and returns it to
// statePool.
func (st *cmrState) release() {
	st.g, st.hw, st.rng, st.stats, st.vm = nil, nil, nil, nil, nil
	statePool.Put(st)
}

// reset empties the embedding: no chains, every qubit unused.
func (st *cmrState) reset() {
	st.vm = make(graph.VertexModel, st.g.Order())
	clear(st.usage)
	for q := range st.cost {
		st.cost[q] = st.vertexCost(q)
	}
}

func (st *cmrState) overlapCount() int {
	c := 0
	for _, u := range st.usage {
		if u > 1 {
			c += u - 1
		}
	}
	return c
}

func (st *cmrState) removeChain(x int) {
	for _, q := range st.vm[x] {
		st.usage[q]--
		st.cost[q] = st.vertexCost(q)
	}
	delete(st.vm, x)
}

func (st *cmrState) addChain(x int, chain []int) {
	st.vm[x] = chain
	for _, q := range chain {
		st.usage[q]++
		st.cost[q] = st.vertexCost(q)
	}
}

// vertexCost is the exponential reuse penalty for routing through q at its
// current usage. The search reads it from st.cost, which addChain and
// removeChain keep equal to it by calling it again, never by scaling an
// entry by the base: that would round differently and change embeddings.
// It is at least 1, since withDefaults forces PenaltyBase > 1 and usage is
// never negative, or +Inf for a dead qubit; chooseRoot's stop rule relies
// on that.
func (st *cmrState) vertexCost(q int) float64 {
	if st.hw.Degree(q) == 0 {
		return math.Inf(1) // dead/isolated qubit
	}
	return math.Pow(st.opts.PenaltyBase, float64(st.usage[q]))
}

// embedVertex (re)computes the chain for logical vertex x given the chains of
// its already-embedded neighbors, following CMR: search from each embedded
// neighbor chain to choose the root g* minimizing the summed reach cost,
// then grow the chain incrementally — each neighbor chain is connected by a
// shortest path from the *current* chain (whose vertices cost nothing to
// stand on), so paths share qubits instead of forming independent spokes.
func (st *cmrState) embedVertex(x int) {
	var embedded []int
	for _, u := range st.g.Neighbors(x) {
		if len(st.vm[u]) > 0 {
			embedded = append(embedded, u)
		}
	}
	if len(embedded) == 0 {
		st.addChain(x, []int{st.cheapestQubit()})
		return
	}
	root := st.chooseRoot(embedded)
	if root == -1 {
		// Hardware disconnected relative to neighbor chains; place on the
		// cheapest qubit and let refinement sort it out (or fail the try).
		st.addChain(x, []int{st.cheapestQubit()})
		return
	}

	// Incremental growth from the root: connect each neighbor chain by a
	// shortest path from the chain built so far.
	chain := []int{root}
	for _, u := range embedded {
		nbr := st.vm[u]
		st.marked.reset()
		for _, q := range nbr {
			st.marked.add(q)
		}
		if st.borders(chain) {
			continue
		}
		target := st.connect(chain, nbr)
		if target == -1 {
			continue // unreachable; the try will fail validation and retry
		}
		// Add the path's interior to x's chain: the vertices between the
		// endpoint inside the neighbor chain and the chain built so far,
		// whose vertices were the search's sources and so the only ones
		// on the path with parent -1.
		for q := st.parent[target]; q != -1 && st.parent[q] != -1; q = st.parent[q] {
			chain = append(chain, q)
		}
	}
	sortInts(chain)
	st.addChain(x, chain)
}

// borders reports whether some vertex of chain has a marked neighbor.
func (st *cmrState) borders(chain []int) bool {
	for _, q := range chain {
		for _, w := range st.hw.Neighbors(q) {
			if st.marked.has(w) {
				return true
			}
		}
	}
	return false
}

// cheapestQubit returns a hardware vertex with minimal reuse penalty,
// breaking ties randomly.
func (st *cmrState) cheapestQubit() int {
	best, bestCost, count := 0, math.Inf(1), 0
	for q, c := range st.cost {
		if c < bestCost {
			best, bestCost, count = q, c, 1
		} else if c == bestCost {
			count++
			if st.rng.Intn(count) == 0 {
				best = q
			}
		}
	}
	return best
}

// The searches below find the cheapest path from a source chain to every
// hardware vertex, where entering vertex v costs st.cost[v] and the sources
// cost 0 to stand on. Each pops its heap in the order a run to completion
// would, and stops once the value its caller reads is final, so callers
// read exactly what a full run would give them. Two facts make the stop
// rules exact: an entry popped later has a key no smaller than the heap's
// current minimum, since every cost is non-negative and float addition of
// a non-negative number never decreases a value; and rounding is monotone,
// so a ≤ b implies fl(a + c) ≤ fl(b + c).

// startSearch resets dist[i] and pq[i] for a search from sources, which
// hold no vertex twice, and counts the search in Stats as a full run.
func (st *cmrState) startSearch(i int, sources []int) (dist []float64, pq distHeap) {
	for len(st.dist) <= i {
		st.dist = append(st.dist, make([]float64, st.hw.Order()))
		st.pq = append(st.pq, nil)
	}
	st.stats.DijkstraRuns++
next:
	for j, s := range sources {
		c := st.comp[s]
		for _, r := range sources[:j] {
			if st.comp[r] == c {
				continue next
			}
		}
		st.stats.RelaxedEdges += st.compEdges[c]
	}
	dist, pq = st.dist[i], st.pq[i][:0]
	for q := range dist {
		dist[q] = math.Inf(1)
	}
	for _, s := range sources {
		dist[s] = 0
		pq.push(distItem{v: s, dist: 0})
	}
	st.pq[i] = pq
	return dist, pq
}

// chooseRoot returns the root g* of a chain that must reach the chains of
// the k embedded neighbors: the vertex q minimizing
// ((0 + d_1[q]) + … + d_k[q]) + cost[q], where d_i is the distance from the
// i-th neighbor's chain, the lowest q among equals. It returns -1 when no
// vertex is reachable from every chain.
//
// The k searches run in lockstep by distance level: at level R, the least
// key in any heap, each search pops every entry at R. A vertex is valued
// once all k searches have settled it. A vertex some search has not
// settled is at distance R or more from that chain, so it is worth at least
// fl(R + 1): the other distances are non-negative, and every cost is at
// least 1 (vertexCost). Once fl(R + 1) exceeds the best value, no unvalued
// vertex can beat or tie it, and the search stops.
func (st *cmrState) chooseRoot(embedded []int) int {
	k := len(embedded)
	for i, u := range embedded {
		st.startSearch(i, st.vm[u])
	}
	cost, settled := st.cost, st.settled
	clear(settled)
	best, bestCost := -1, math.Inf(1)
	for {
		level, live := 0.0, false
		for _, pq := range st.pq[:k] {
			if len(pq) > 0 && (!live || pq[0].dist < level) {
				level, live = pq[0].dist, true
			}
		}
		if !live || level+1 > bestCost {
			return best
		}
		for i := range st.pq[:k] {
			dist, pq := st.dist[i], st.pq[i]
			for len(pq) > 0 && pq[0].dist == level {
				it := pq.pop()
				if it.dist > dist[it.v] {
					continue
				}
				for _, w := range st.hw.Neighbors(it.v) {
					if nd := it.dist + cost[w]; nd < dist[w] {
						dist[w] = nd
						pq.push(distItem{v: w, dist: nd})
					}
				}
				q := it.v
				if settled[q]++; int(settled[q]) < k {
					continue
				}
				sum := 0.0
				for _, d := range st.dist[:k] {
					sum += d[q]
				}
				if c := sum + cost[q]; c < bestCost || c == bestCost && q < best {
					best, bestCost = q, c
				}
			}
			st.pq[i] = pq
		}
	}
}

// connect returns the vertex of targets cheapest to reach from sources, the
// first in targets' order among equals, or -1 when none is reachable;
// st.parent then traces a cheapest path from it back to a source, whose
// parent is -1. The targets must be the marked vertices.
//
// B is the least tentative distance to a target, and cmin the least cost
// of one. The search stops before a pop once heapMin + cmin > B: a target
// not yet at its final distance can only be reached later, at fl(key +
// cost) ≥ fl(heapMin + cmin) > B, so every target at distance B has its
// final distance, and its parent chain is settled.
func (st *cmrState) connect(sources, targets []int) int {
	dist, pq := st.startSearch(0, sources)
	parent, cost := st.parent, st.cost
	for _, s := range sources {
		parent[s] = -1
	}
	b, cmin := math.Inf(1), math.Inf(1)
	for _, q := range targets {
		b, cmin = min(b, dist[q]), min(cmin, cost[q])
	}
	for len(pq) > 0 && !(pq[0].dist+cmin > b) {
		it := pq.pop()
		if it.dist > dist[it.v] {
			continue
		}
		for _, w := range st.hw.Neighbors(it.v) {
			if nd := it.dist + cost[w]; nd < dist[w] {
				dist[w] = nd
				parent[w] = it.v
				pq.push(distItem{v: w, dist: nd})
				if nd < b && st.marked.has(w) {
					b = nd
				}
			}
		}
	}
	st.pq[0] = pq
	target, targetCost := -1, math.Inf(1)
	for _, q := range targets {
		if dist[q] < targetCost {
			target, targetCost = q, dist[q]
		}
	}
	return target
}

// prune removes unnecessary vertices from every chain: a chain vertex is
// dropped when the remaining chain stays connected and all logical edges
// remain realized. Greedy: chains are taken in logical vertex order, each
// chain's vertices in index order, and the scan of a chain restarts from its
// first vertex after every removal, since one removal can enable another.
func (st *cmrState) prune(vm graph.VertexModel) {
	g, hw := st.g, st.hw
	for x := 0; x < g.Order(); x++ {
		chain := vm[x]
		if len(chain) <= 1 {
			continue
		}
		for i := 0; i < len(chain); {
			candidate := append(append(st.cand[:0], chain[:i]...), chain[i+1:]...)
			st.cand = candidate
			if len(candidate) > 0 && graph.ConnectedSubset(hw, candidate) && st.edgesStillRealized(vm, x, candidate) {
				// The chain's array is its own: embedVertex builds each
				// chain fresh.
				chain = append(chain[:i], chain[i+1:]...)
				// restart index: removal may enable more removals
				i = 0
				continue
			}
			i++
		}
		sortInts(chain)
		vm[x] = chain
	}
}

func (st *cmrState) edgesStillRealized(vm graph.VertexModel, x int, candidate []int) bool {
	st.marked.reset()
	for _, q := range candidate {
		st.marked.add(q)
	}
	for _, u := range st.g.Neighbors(x) {
		if !st.borders(vm[u]) {
			return false
		}
	}
	return true
}

// stampSet is a set of hardware vertices that empties in O(1): v is a
// member while mark[v] equals stamp.
type stampSet struct {
	mark  []uint32
	stamp uint32
}

// reset empties the set; it must precede the set's first use.
func (s *stampSet) reset() {
	s.stamp++
	if s.stamp == 0 { // wrapped: forget every old mark
		clear(s.mark)
		s.stamp = 1
	}
}

func (s *stampSet) add(v int)      { s.mark[v] = s.stamp }
func (s *stampSet) has(v int) bool { return s.mark[v] == s.stamp }

// distItem is a Dijkstra frontier entry.
type distItem struct {
	v    int
	dist float64
}

// distHeap is a binary min-heap of frontier entries by dist. push and pop
// compare and swap exactly as container/heap's Push and Pop do, so entries
// of equal dist leave in the same order and the search's parent pointers,
// and with them every chain, are the same as with container/heap.
type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	a := *h
	for j := len(a) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(a[j].dist < a[i].dist) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *distHeap) pop() distItem {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && a[j2].dist < a[j].dist {
			j = j2 // right child
		}
		if !(a[j].dist < a[i].dist) {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a[:n]
	return a[n]
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
