package embed

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/splitexec/splitexec/internal/graph"
)

func TestFindEmbeddingTriangleInCell(t *testing.T) {
	g := graph.Complete(3)
	hw := graph.Chimera{M: 1, N: 1, L: 4}.Graph()
	vm, stats, err := FindEmbedding(g, hw, rand.New(rand.NewSource(1)), Options{})
	if err != nil {
		t.Fatalf("K3 into one unit cell failed: %v", err)
	}
	if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
		t.Fatalf("invalid embedding: %v", err)
	}
	if stats.PhysicalQubits < 3 || stats.PhysicalQubits > 8 {
		t.Errorf("physical qubits = %d, implausible", stats.PhysicalQubits)
	}
	if stats.DijkstraRuns == 0 {
		t.Error("no Dijkstra runs recorded")
	}
}

func TestFindEmbeddingCompleteGraphs(t *testing.T) {
	hw := graph.Chimera{M: 4, N: 4, L: 4}.Graph()
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 8; n++ {
		g := graph.Complete(n)
		vm, _, err := FindEmbedding(g, hw, rng, Options{MaxTries: 20})
		if err != nil {
			t.Fatalf("K%d into C(4,4,4) failed: %v", n, err)
		}
		if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
			t.Fatalf("K%d: invalid embedding: %v", n, err)
		}
	}
}

func TestFindEmbeddingSparseGraphs(t *testing.T) {
	hw := graph.Chimera{M: 3, N: 3, L: 4}.Graph()
	rng := rand.New(rand.NewSource(3))
	cases := map[string]*graph.Graph{
		"cycle12":  graph.Cycle(12),
		"path15":   graph.Path(15),
		"star7":    graph.Star(7),
		"grid3x4":  graph.Grid(3, 4),
		"gnp14-.2": graph.GNP(14, 0.2, rng),
	}
	for name, g := range cases {
		vm, _, err := FindEmbedding(g, hw, rng, Options{MaxTries: 20})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
	}
}

func TestFindEmbeddingIsolatedVertices(t *testing.T) {
	g := graph.New(4) // no edges at all
	hw := graph.Chimera{M: 1, N: 1, L: 4}.Graph()
	vm, _, err := FindEmbedding(g, hw, rand.New(rand.NewSource(2)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vm) != 4 {
		t.Fatalf("isolated vertices unmapped: %v", vm)
	}
	if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
		t.Fatal(err)
	}
}

func TestFindEmbeddingEmptyGraphs(t *testing.T) {
	hw := graph.Chimera{M: 1, N: 1, L: 4}.Graph()
	vm, _, err := FindEmbedding(graph.New(0), hw, rand.New(rand.NewSource(1)), Options{})
	if err != nil || len(vm) != 0 {
		t.Errorf("empty input: vm=%v err=%v", vm, err)
	}
	_, _, err = FindEmbedding(graph.Complete(2), graph.New(0), rand.New(rand.NewSource(1)), Options{})
	if !errors.Is(err, ErrNoEmbedding) {
		t.Errorf("empty hardware: err=%v, want ErrNoEmbedding", err)
	}
}

func TestFindEmbeddingImpossible(t *testing.T) {
	// K5 cannot embed into a path (treewidth 1 hardware).
	g := graph.Complete(5)
	hw := graph.Path(6)
	_, _, err := FindEmbedding(g, hw, rand.New(rand.NewSource(1)), Options{MaxTries: 3, MaxIterations: 4})
	if !errors.Is(err, ErrNoEmbedding) {
		t.Errorf("err = %v, want ErrNoEmbedding", err)
	}
}

func TestFindEmbeddingWithFaults(t *testing.T) {
	// Paper §2.2: faulty qubits are deactivated and make embedding harder
	// but must still be avoided entirely.
	c := graph.Chimera{M: 3, N: 3, L: 4}
	hw := c.Graph()
	rng := rand.New(rand.NewSource(11))
	fm := graph.RandomFaults(hw, 0.08, 0.02, rng)
	faulty := fm.Apply(hw)
	g := graph.Cycle(8)
	vm, _, err := FindEmbedding(g, faulty, rng, Options{MaxTries: 30})
	if err != nil {
		t.Fatalf("embedding with faults failed: %v", err)
	}
	if err := graph.ValidateMinor(g, faulty, vm, true); err != nil {
		t.Fatal(err)
	}
	dead := make(map[int]bool)
	for _, q := range fm.DeadQubits {
		dead[q] = true
	}
	for v, chain := range vm {
		for _, q := range chain {
			if dead[q] {
				t.Fatalf("chain of %d uses dead qubit %d", v, q)
			}
		}
	}
}

func TestFindEmbeddingDeterministicOption(t *testing.T) {
	g := graph.Cycle(6)
	hw := graph.Chimera{M: 2, N: 2, L: 4}.Graph()
	vm1, _, err1 := FindEmbedding(g, hw, rand.New(rand.NewSource(5)), Options{Deterministic: true, MaxTries: 1})
	vm2, _, err2 := FindEmbedding(g, hw, rand.New(rand.NewSource(5)), Options{Deterministic: true, MaxTries: 1})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	for v := range vm1 {
		if len(vm1[v]) != len(vm2[v]) {
			t.Fatalf("nondeterministic chains for %d: %v vs %v", v, vm1[v], vm2[v])
		}
		for i := range vm1[v] {
			if vm1[v][i] != vm2[v][i] {
				t.Fatalf("nondeterministic chains for %d: %v vs %v", v, vm1[v], vm2[v])
			}
		}
	}
}

func TestFindEmbeddingStatsAccumulate(t *testing.T) {
	g := graph.Complete(4)
	hw := graph.Chimera{M: 2, N: 2, L: 4}.Graph()
	_, stats, err := FindEmbedding(g, hw, rand.New(rand.NewSource(9)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tries < 1 || stats.Sweeps < 1 || stats.RelaxedEdges == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	if stats.MaxChainLength < 1 {
		t.Errorf("MaxChainLength = %d", stats.MaxChainLength)
	}
}

// Property-style: random sparse graphs into C(4,4,4) always validate.
func TestFindEmbeddingRandomAlwaysValid(t *testing.T) {
	hw := graph.Chimera{M: 4, N: 4, L: 4}.Graph()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(10, 0.3, rng)
		vm, _, err := FindEmbedding(g, hw, rng, Options{MaxTries: 20})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestPruneShortensChains(t *testing.T) {
	// A chain with an unnecessary appendix must be pruned.
	c := graph.Chimera{M: 2, N: 2, L: 4}
	hw := c.Graph()
	g := graph.Complete(2)
	vm := graph.VertexModel{
		0: {c.Index(0, 0, 0, 0), c.Index(0, 0, 1, 0), c.Index(0, 0, 1, 1)},
		1: {c.Index(0, 0, 0, 1)},
	}
	if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
		t.Fatalf("setup invalid: %v", err)
	}
	var stats Stats
	newCMRState(g, hw, nil, Options{}.withDefaults(), &stats).prune(vm)
	if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
		t.Fatalf("pruned embedding invalid: %v", err)
	}
	if len(vm[0]) != 1 {
		t.Errorf("chain not pruned to singleton: %v", vm[0])
	}
}

// The search reads reuse penalties from a table that addChain and
// removeChain maintain. Every entry must equal math.Pow(PenaltyBase, usage)
// exactly, as the search computed it before the table existed; updating
// entries by multiplying or dividing by the base would round differently
// for a base like 1.3 once usage reaches 3.
func TestCostTableTracksUsage(t *testing.T) {
	hw := graph.Chimera{M: 2, N: 2, L: 4}.Graph()
	hw.RemoveVertex(5) // a dead qubit costs +Inf at any usage
	g := graph.Complete(8)
	var stats Stats
	opts := Options{PenaltyBase: 1.3}.withDefaults()
	st := newCMRState(g, hw, rand.New(rand.NewSource(1)), opts, &stats)
	st.reset()
	check := func(step string) {
		t.Helper()
		for q, c := range st.cost {
			want := math.Pow(1.3, float64(st.usage[q]))
			if q == 5 {
				want = math.Inf(1)
			}
			if c != want {
				t.Fatalf("%s: cost[%d] = %v at usage %d, want %v", step, q, c, st.usage[q], want)
			}
		}
	}
	check("reset")
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 400; step++ {
		x := rng.Intn(g.Order())
		if len(st.vm[x]) > 0 {
			st.removeChain(x)
		} else {
			// Overlapping chains drive shared qubits' usage up to 8.
			st.addChain(x, []int{rng.Intn(3), 3 + rng.Intn(3), 6 + rng.Intn(2)})
		}
		check(fmt.Sprintf("step %d", step))
	}
}

// BenchmarkFindEmbeddingSparse times one CMR search per op on the
// benchmark's input shape: connected graphs of 10–16 vertices and degree at
// most 3 into C(8,8,4) with 20 tries, graph i mod 28 with seed i.
func BenchmarkFindEmbeddingSparse(b *testing.B) {
	hw := graph.Vesuvius().Graph()
	rng := rand.New(rand.NewSource(1))
	gs := make([]*graph.Graph, 28)
	for i := range gs {
		gs[i] = sparseTestGraph(rng, 10+i%7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := FindEmbedding(gs[i%len(gs)], hw, rand.New(rand.NewSource(int64(i))), Options{MaxTries: 20}); err != nil {
			b.Fatal(err)
		}
	}
}
