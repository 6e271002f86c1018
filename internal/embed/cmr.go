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
	Tries          int // randomized restarts consumed
	Sweeps         int // improvement iterations across all tries
	DijkstraRuns   int // single-source shortest-path computations
	RelaxedEdges   int // total edge relaxations inside Dijkstra
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
	for try := 0; try < opts.MaxTries; try++ {
		stats.Tries++
		vm, ok := cmrTry(g, hw, rng, opts, &stats)
		if !ok {
			continue
		}
		prune(g, hw, vm)
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

// cmrTry performs one randomized embedding attempt.
func cmrTry(g, hw *graph.Graph, rng *rand.Rand, opts Options, stats *Stats) (graph.VertexModel, bool) {
	n := g.Order()
	// Embed high-degree vertices first: their chains are hardest to route.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if !opts.Deterministic {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	sortStable(order, func(a, b int) bool { return g.Degree(a) > g.Degree(b) })

	st := newCMRState(g, hw, rng, opts, stats)

	// Phase 1: initial embedding, overlaps permitted under penalty.
	for _, x := range order {
		st.embedVertex(x)
	}
	// Phase 2: refinement sweeps until overlap-free, stagnant, or out of
	// iterations. A try that stops reducing its overlap count is abandoned
	// early — a fresh randomized restart is more productive than grinding.
	bestOverlap := 1 << 30
	stagnant := 0
	for iter := 0; iter < opts.MaxIterations; iter++ {
		stats.Sweeps++
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

// cmrState is one try's working state. Its scratch buffers are reused by
// every Dijkstra run of the try; searches that share one hardware graph
// share nothing else.
type cmrState struct {
	g, hw *graph.Graph
	rng   *rand.Rand
	opts  Options
	stats *Stats
	vm    graph.VertexModel
	usage []int     // how many chains currently use each hardware vertex
	cost  []float64 // vertexCost of each hardware vertex at its current usage

	// Scratch of multiSourceDijkstra and embedVertex, one slot per hardware
	// vertex.
	dist      []float64
	parent    []int
	pq        distHeap
	total     []float64
	reachable []bool
}

// newCMRState returns the state of an empty embedding: no chains, every
// qubit unused.
func newCMRState(g, hw *graph.Graph, rng *rand.Rand, opts Options, stats *Stats) *cmrState {
	nh := hw.Order()
	st := &cmrState{
		g: g, hw: hw, rng: rng, opts: opts, stats: stats,
		vm:        make(graph.VertexModel, g.Order()),
		usage:     make([]int, nh),
		cost:      make([]float64, nh),
		dist:      make([]float64, nh),
		parent:    make([]int, nh),
		total:     make([]float64, nh),
		reachable: make([]bool, nh),
	}
	for q := range st.cost {
		st.cost[q] = st.vertexCost(q)
	}
	return st
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
func (st *cmrState) vertexCost(q int) float64 {
	if st.hw.Degree(q) == 0 {
		return math.Inf(1) // dead/isolated qubit
	}
	return math.Pow(st.opts.PenaltyBase, float64(st.usage[q]))
}

// embedVertex (re)computes the chain for logical vertex x given the chains of
// its already-embedded neighbors, following CMR: run a multi-source Dijkstra
// from each embedded neighbor chain to choose the root g* minimizing the
// summed reach cost, then grow the chain incrementally — each neighbor chain
// is connected by a shortest path from the *current* chain (whose vertices
// cost nothing to stand on), so paths share qubits instead of forming
// independent spokes.
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

	nh := st.hw.Order()
	total, reachable := st.total, st.reachable
	for i := range reachable {
		total[i] = 0
		reachable[i] = true
	}
	for _, u := range embedded {
		d, _ := st.multiSourceDijkstra(st.vm[u])
		for q := 0; q < nh; q++ {
			if math.IsInf(d[q], 1) {
				reachable[q] = false
			} else {
				total[q] += d[q]
			}
		}
	}
	// Root cost includes the root's own reuse penalty once.
	best, bestCost := -1, math.Inf(1)
	for q := 0; q < nh; q++ {
		if !reachable[q] {
			continue
		}
		c := total[q] + st.cost[q]
		if c < bestCost {
			best, bestCost = q, c
		}
	}
	if best == -1 {
		// Hardware disconnected relative to neighbor chains; place on the
		// cheapest qubit and let refinement sort it out (or fail the try).
		st.addChain(x, []int{st.cheapestQubit()})
		return
	}

	// Incremental growth from the root: connect each neighbor chain by a
	// shortest path from the chain built so far.
	chainSet := map[int]bool{best: true}
	chain := []int{best}
	for _, u := range embedded {
		inNbr := make(map[int]bool, len(st.vm[u]))
		adjacent := false
		for _, q := range st.vm[u] {
			inNbr[q] = true
		}
		// Already adjacent? (Some chain vertex borders the neighbor chain.)
		for _, q := range chain {
			for _, w := range st.hw.Neighbors(q) {
				if inNbr[w] {
					adjacent = true
					break
				}
			}
			if adjacent {
				break
			}
		}
		if adjacent {
			continue
		}
		d, parent := st.multiSourceDijkstra(chain)
		// Cheapest entry point into the neighbor chain.
		target, targetCost := -1, math.Inf(1)
		for _, q := range st.vm[u] {
			if d[q] < targetCost {
				target, targetCost = q, d[q]
			}
		}
		if target == -1 {
			continue // unreachable; the try will fail validation and retry
		}
		// Add the path's interior (excluding the endpoint inside the
		// neighbor chain) to x's chain.
		for q := parent[target]; q != -1 && !chainSet[q]; q = parent[q] {
			chainSet[q] = true
			chain = append(chain, q)
		}
	}
	sortInts(chain)
	st.addChain(x, chain)
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

// multiSourceDijkstra computes, for every hardware vertex q, the cheapest
// cost of a path from the source chain to q where entering vertex v costs
// vertexCost(v); source-chain vertices cost 0 to stand on. parent pointers
// trace back to a source vertex (parent = -1 at sources). The returned
// slices are st's buffers: the next run overwrites them.
func (st *cmrState) multiSourceDijkstra(sources []int) (dist []float64, parent []int) {
	st.stats.DijkstraRuns++
	dist, parent, cost := st.dist, st.parent, st.cost
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	pq := st.pq[:0]
	for _, s := range sources {
		dist[s] = 0
		pq.push(distItem{v: s, dist: 0})
	}
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > dist[it.v] {
			continue
		}
		ns := st.hw.Neighbors(it.v)
		st.stats.RelaxedEdges += len(ns)
		for _, u := range ns {
			nd := it.dist + cost[u]
			if nd < dist[u] {
				dist[u] = nd
				parent[u] = it.v
				pq.push(distItem{v: u, dist: nd})
			}
		}
	}
	st.pq = pq
	return dist, parent
}

// prune removes unnecessary vertices from every chain: a chain vertex is
// dropped when the remaining chain stays connected and all logical edges
// remain realized. Greedy: chains are taken in logical vertex order, each
// chain's vertices in index order, and the scan of a chain restarts from its
// first vertex after every removal, since one removal can enable another.
func prune(g, hw *graph.Graph, vm graph.VertexModel) {
	for x := 0; x < g.Order(); x++ {
		chain := vm[x]
		if len(chain) <= 1 {
			continue
		}
		for i := 0; i < len(chain); {
			candidate := append([]int(nil), chain[:i]...)
			candidate = append(candidate, chain[i+1:]...)
			if len(candidate) > 0 && graph.ConnectedSubset(hw, candidate) && edgesStillRealized(g, hw, vm, x, candidate) {
				chain = candidate
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

func edgesStillRealized(g, hw *graph.Graph, vm graph.VertexModel, x int, candidate []int) bool {
	inC := make(map[int]bool, len(candidate))
	for _, q := range candidate {
		inC[q] = true
	}
	for _, u := range g.Neighbors(x) {
		found := false
		for _, q := range vm[u] {
			for _, w := range hw.Neighbors(q) {
				if inC[w] {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

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
