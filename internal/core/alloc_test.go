package core

import (
	"math/rand"
	"testing"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/qubo"
)

// TestReseededCacheHitAllocs bounds a warm cache-hit solve, the serving hot
// path, through a solver kept across jobs and reseeded per job: a 16-vertex
// degree-3 MAX-CUT on C(8,8,4), 256 sweeps, 4 reads. Building a solver per
// job cost 1,036 allocations, most of them the working graph.
func TestReseededCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	node := machine.SimpleNode()
	node.QPU.Topology = graph.Vesuvius()
	s := NewSolver(Config{
		Node:    node,
		Sampler: anneal.SamplerOptions{Sweeps: 256},
		Embed:   embed.Options{MaxTries: 20},
		Cache:   NewEmbeddingCache(),
	})
	g := graph.RandomRegularish(16, 3, rand.New(rand.NewSource(1)))
	q := qubo.MaxCut(g, nil)
	if _, err := s.SolveQUBO(q); err != nil { // the miss that fills the cache
		t.Fatal(err)
	}
	seed := int64(0)
	n := testing.AllocsPerRun(20, func() {
		seed++
		s.Reseed(seed)
		sol, err := s.SolveQUBO(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Timing.CacheHit || sol.Reads != 4 {
			t.Fatalf("warm solve: cache hit %v, %d reads; want a hit and 4 reads", sol.Timing.CacheHit, sol.Reads)
		}
	})
	if n > 300 {
		t.Errorf("warm cache-hit solve allocates %.0f objects, want at most 300", n)
	}
}
