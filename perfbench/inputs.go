package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/service"
)

// Inputs are MAX-CUT QUBOs on connected sparse graphs of 10–16 vertices.
// Sizes cycle through that range in job order, so every seed has the same
// size mix. The seed draws solve-cold's graphs and solve-hot's relabelings
// and job order.
const (
	minVertices = 10
	maxVertices = 16
	maxDegree   = 3
	librarySize = 32 // solve-hot's working set of distinct graphs
)

// librarySeed draws solve-hot's library, which is part of the workload's
// definition rather than of its seed: the ring's split of the library keys
// sets how much of the load the busier single-worker shard carries, and a
// per-seed library would move throughput by ±10% with that split alone.
const librarySeed = 1

// energyTol absorbs float rounding when comparing energies; MAX-CUT energies
// with unit weights are small integers.
const energyTol = 1e-6

// problem is one solve input with what its answer is graded against.
type problem struct {
	q      *qubo.QUBO
	hash   string  // graph.CanonicalHash of the interaction graph: the cache and routing key
	ground float64 // exact ground-state energy
}

// request is a problem's wire request, exactly as service.Client.Solve
// encodes it.
func (p problem) request() service.SolveRequest { return service.EncodeQUBO(p.q) }

// inputs is everything one round sends, generated before any stack comes
// up and outside every timed phase.
type inputs struct {
	prewarm []problem // solve-hot's library, sent once so every cache holds its keys
	warmup  []problem // the fixed warm-up batch, part of set-up
	jobs    []problem // the measured jobs
}

// generate builds the workload's inputs from seed alone.
func generate(w spec, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	var in inputs
	if w.routed {
		lib := rand.New(rand.NewSource(librarySeed))
		in.prewarm = distinctProblems(lib, librarySize, map[string]bool{})
		in.warmup = relabelings(rng, in.prewarm, w.warmup)
		in.jobs = relabelings(rng, in.prewarm, w.jobs)
		return in
	}
	// Warm-up and measured graphs share one distinctness set, so no
	// measured job can hit an embedding the warm-up cached.
	seen := map[string]bool{}
	in.warmup = distinctProblems(rng, w.warmup, seen)
	in.jobs = distinctProblems(rng, w.jobs, seen)
	return in
}

// sparseGraph draws a connected graph on n vertices with degree at most
// maxDegree: a random recursive tree plus n/4 extra edges. Hubs slow the
// CMR search on a few graphs by an order of magnitude: at degree 4, about
// one job in a hundred takes 4–20 times the median, so p99 sat on the edge
// of that group and moved with which graphs a seed drew. At degree 3 the
// single-threaded search's p99 is about twice its median.
func sparseGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[rng.Intn(i)]
		for g.Degree(u) >= maxDegree {
			u = perm[rng.Intn(i)]
		}
		g.AddEdge(perm[i], u)
	}
	for g.Size() < n-1+n/4 {
		u, v := rng.Intn(n), rng.Intn(n)
		if g.Degree(u) < maxDegree && g.Degree(v) < maxDegree {
			g.AddEdge(u, v) // self-loops and repeats are no-ops
		}
	}
	return g
}

// distinctProblems draws count MAX-CUT problems whose graphs are pairwise
// non-isomorphic and absent from seen. A draw whose canonical hash was
// already generated is dropped: naive draws repeat isomorphism classes
// often enough to turn cold jobs into cache hits.
func distinctProblems(rng *rand.Rand, count int, seen map[string]bool) []problem {
	out := make([]problem, 0, count)
	for len(out) < count {
		g := sparseGraph(rng, minVertices+len(out)%(maxVertices-minVertices+1))
		h := graph.CanonicalHash(g)
		if seen[h] {
			continue
		}
		seen[h] = true
		q := qubo.MaxCut(g, nil)
		out = append(out, problem{q: q, hash: h, ground: groundEnergy(q)})
	}
	return out
}

// relabelings draws count problems, each a uniformly random relabeling of a
// library graph, taking the library in shuffled rounds so every graph
// carries the same share of jobs. A relabeling keeps the library key under
// other vertex names, so every job takes the cache's isomorphism hit path.
func relabelings(rng *rand.Rand, library []problem, count int) []problem {
	out := make([]problem, count)
	for i, k := range shuffledCycle(rng, len(library), count) {
		src := library[k]
		g := src.q.Graph()
		perm := rng.Perm(g.Order())
		h := graph.New(g.Order())
		for _, e := range g.Edges() {
			h.AddEdge(perm[e.U], perm[e.V])
		}
		out[i] = problem{q: qubo.MaxCut(h, nil), hash: src.hash, ground: src.ground}
	}
	return out
}

// shuffledCycle lists count indices below n as consecutive shuffled runs
// of 0..n-1, so every index is drawn equally often.
func shuffledCycle(rng *rand.Rand, n, count int) []int {
	out := make([]int, 0, count+n)
	for len(out) < count {
		out = append(out, rng.Perm(n)...)
	}
	return out[:count]
}

// groundEnergy returns the exact minimum of q by Gray-code enumeration:
// each step flips one variable and updates the energy from that variable's
// couplings alone, so a sparse 16-variable problem costs 2^16 short updates
// instead of BruteForce's 2^16 full evaluations.
func groundEnergy(q *qubo.QUBO) float64 {
	type coupling struct {
		j int
		c float64
	}
	n := q.Dim()
	linear := make([]float64, n)
	couplings := make([][]coupling, n)
	for i := 0; i < n; i++ {
		linear[i] = q.Get(i, i)
		for j := i + 1; j < n; j++ {
			if c := q.Get(i, j); c != 0 {
				couplings[i] = append(couplings[i], coupling{j, c})
				couplings[j] = append(couplings[j], coupling{i, c})
			}
		}
	}
	x := make([]bool, n)
	e, best := 0.0, 0.0
	for k := uint64(1); k < 1<<n; k++ {
		i := bits.TrailingZeros64(k)
		d := linear[i]
		for _, t := range couplings[i] {
			if x[t.j] {
				d += t.c
			}
		}
		if x[i] {
			e -= d
		} else {
			e += d
		}
		x[i] = !x[i]
		best = min(best, e)
	}
	return best
}

// checkSolve verifies one solve answer: OK, one bit per variable, and a
// reported energy equal to the QUBO energy of the returned assignment and
// no lower than the exact ground energy. It reports whether the answer is a
// ground state.
func checkSolve(p problem, resp service.SolveResponse) (bool, error) {
	if !resp.OK {
		return false, fmt.Errorf("response not OK: %s", resp.Error)
	}
	if len(resp.Binary) != p.q.Dim() {
		return false, fmt.Errorf("assignment has %d bits for %d variables", len(resp.Binary), p.q.Dim())
	}
	b := make([]int8, len(resp.Binary))
	for i, v := range resp.Binary {
		if v > 1 {
			return false, fmt.Errorf("assignment bit %d is %d", i, v)
		}
		b[i] = int8(v)
	}
	if e := p.q.Energy(b); math.Abs(e-resp.Energy) > energyTol {
		return false, fmt.Errorf("reported energy %v, assignment has %v", resp.Energy, e)
	}
	if resp.Energy < p.ground-energyTol {
		return false, fmt.Errorf("reported energy %v is below the exact ground energy %v", resp.Energy, p.ground)
	}
	return resp.Energy <= p.ground+energyTol, nil
}
