package embed

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/splitexec/splitexec/internal/graph"
)

// fullSearch is the reference for chooseRoot and connect: a multi-source
// Dijkstra over hw run to completion, where entering v costs cost[v] and the
// sources cost 0 to stand on. It returns each vertex's distance and parent
// (-1 at sources and unreached vertices) and the edges it relaxed.
func fullSearch(hw *graph.Graph, cost []float64, sources []int) (dist []float64, parent []int, relaxed int) {
	dist = make([]float64, hw.Order())
	parent = make([]int, hw.Order())
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	var pq distHeap
	for _, s := range sources {
		dist[s] = 0
		pq.push(distItem{v: s, dist: 0})
	}
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > dist[it.v] {
			continue
		}
		ns := hw.Neighbors(it.v)
		relaxed += len(ns)
		for _, u := range ns {
			nd := it.dist + cost[u]
			if nd < dist[u] {
				dist[u] = nd
				parent[u] = it.v
				pq.push(distItem{v: u, dist: nd})
			}
		}
	}
	return dist, parent, relaxed
}

// referenceRoot chooses a root from full searches: the vertex reachable from
// every chain with the least ((0 + d_1) + … + d_k) + cost, the first in
// index order among equals, or -1.
func referenceRoot(hw *graph.Graph, cost []float64, chains [][]int) (root, relaxed int) {
	total := make([]float64, hw.Order())
	reachable := make([]bool, hw.Order())
	for q := range reachable {
		reachable[q] = true
	}
	for _, chain := range chains {
		d, _, r := fullSearch(hw, cost, chain)
		relaxed += r
		for q := range d {
			if math.IsInf(d[q], 1) {
				reachable[q] = false
			} else {
				total[q] += d[q]
			}
		}
	}
	root, best := -1, math.Inf(1)
	for q := range total {
		if c := total[q] + cost[q]; reachable[q] && c < best {
			root, best = q, c
		}
	}
	return root, relaxed
}

// referenceConnect picks, from a full search, the cheapest vertex of targets
// to reach from chain, the first in targets' order among equals, and the
// path's interior back to the chain.
func referenceConnect(hw *graph.Graph, cost []float64, chain, targets []int) (target int, path []int, relaxed int) {
	d, parent, relaxed := fullSearch(hw, cost, chain)
	target, best := -1, math.Inf(1)
	for _, q := range targets {
		if d[q] < best {
			target, best = q, d[q]
		}
	}
	if target != -1 {
		for q := parent[target]; q != -1 && !slices.Contains(chain, q); q = parent[q] {
			path = append(path, q)
		}
	}
	return target, path, relaxed
}

// FuzzCMRSearches checks the early-stopping searches against full runs. The
// bytes choose a C(m,n,4) with m,n ≤ 4, optionally faulted, a PenaltyBase, up
// to four neighbor chains for chooseRoot and a source and target chain for
// connect, then a usage of 0–3 per qubit, chains overlapping freely. The
// root, the target, the path and RelaxedEdges must equal the reference's.
func FuzzCMRSearches(f *testing.F) {
	f.Add([]byte{3, 3, 0, 2, 2, 3, 1, 2, 3, 2, 40, 41, 7, 2, 90, 91, 3, 60, 61, 62, 1, 0, 1, 2, 3, 0, 1})
	f.Add([]byte{3, 3, 7, 0, 3, 1, 5, 2, 7, 9, 0, 100, 1, 33, 2, 77, 78, 2, 20, 21, 3, 1, 1, 2, 2, 3})
	f.Add([]byte{1, 2, 1, 1, 1, 4, 0, 1, 2, 3, 4, 0, 31, 1, 16, 17, 0, 2, 2, 2, 2})
	f.Add([]byte{2, 0, 9, 3, 0, 0, 5, 0, 6, 1, 0, 2, 1, 3, 3})
	// A root search stopping once R + 1 ≥ best, and a growth search
	// stopping once heapMin + 2·cmin > B, each fail one of these.
	f.Add([]byte("00001210"))
	f.Add([]byte("1100008=>800"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		hw := graph.Chimera{M: 1 + next()%4, N: 1 + next()%4, L: 4}.Graph()
		if b := next(); b%2 == 1 {
			hw = graph.RandomFaults(hw, 0.1, 0.1, rand.New(rand.NewSource(int64(b)))).Apply(hw)
		}
		nh := hw.Order()
		opts := Options{PenaltyBase: []float64{1.3, 2, 8, 16}[next()%4]}.withDefaults()
		chain := func() []int {
			var c []int
			for n := 1 + next()%5; n > 0; n-- {
				if q := next() % nh; !slices.Contains(c, q) {
					c = append(c, q)
				}
			}
			return c
		}
		chains := make([][]int, 1+next()%4)
		for i := range chains {
			chains[i] = chain()
			slices.Sort(chains[i]) // vertex models hold sorted chains
		}
		sources := chain()

		var stats Stats
		st := newCMRState(graph.New(len(chains)), hw, nil, opts, &stats)
		defer st.release()
		st.reset()
		for q := range st.usage {
			st.usage[q] = next() % 4
			st.cost[q] = st.vertexCost(q)
		}

		embedded := make([]int, len(chains))
		for i, c := range chains {
			st.vm[i] = c
			embedded[i] = i
		}
		wantRoot, wantRelaxed := referenceRoot(hw, st.cost, chains)
		if root := st.chooseRoot(embedded); root != wantRoot {
			t.Fatalf("chooseRoot = %d, full searches choose %d", root, wantRoot)
		}
		if stats.DijkstraRuns != len(chains) || stats.RelaxedEdges != wantRelaxed {
			t.Fatalf("root searches: %d runs relaxing %d edges, full searches: %d relaxing %d",
				stats.DijkstraRuns, stats.RelaxedEdges, len(chains), wantRelaxed)
		}

		targets := chains[0]
		wantTarget, wantPath, r := referenceConnect(hw, st.cost, sources, targets)
		st.marked.reset()
		for _, q := range targets {
			st.marked.add(q)
		}
		stats = Stats{}
		target := st.connect(sources, targets)
		if target != wantTarget {
			t.Fatalf("connect target = %d, full search picks %d", target, wantTarget)
		}
		var path []int
		if target != -1 {
			for q := st.parent[target]; q != -1 && st.parent[q] != -1; q = st.parent[q] {
				path = append(path, q)
			}
		}
		if !slices.Equal(path, wantPath) {
			t.Fatalf("connect path = %v, full search's = %v", path, wantPath)
		}
		if stats.DijkstraRuns != 1 || stats.RelaxedEdges != r {
			t.Fatalf("growth search: %d runs relaxing %d edges, full search: 1 relaxing %d",
				stats.DijkstraRuns, stats.RelaxedEdges, r)
		}
	})
}
