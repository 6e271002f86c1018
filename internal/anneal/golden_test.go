package anneal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

// scalarKernelGolden is the SHA-256 of scalarKernelDigest's corpus, recorded
// with the kernel that swept the full 512-spin CSR program (a dense copy of
// the sweep for all-active models, an active-list copy for the rest). The
// active-spin sweep must reproduce every read bit for bit.
const scalarKernelGolden = "12a8d3ddb1d04437e2d0accd6a0f5d89da699e437d215ad52de5db5f8890907a"

// benchShapedGraph draws a connected graph on n vertices with degree at
// most 3 (a random recursive tree plus n/4 extra edges): the shape of
// perfbench's MAX-CUT inputs.
func benchShapedGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[rng.Intn(i)]
		for g.Degree(u) >= 3 {
			u = perm[rng.Intn(i)]
		}
		g.AddEdge(perm[i], u)
	}
	for g.Size() < n-1+n/4 {
		u, v := rng.Intn(n), rng.Intn(n)
		if g.Degree(u) < 3 && g.Degree(v) < 3 {
			g.AddEdge(u, v)
		}
	}
	return g
}

// embeddedPrograms returns count hardware programs shaped like the service's
// cache-hit jobs: MAX-CUT on 10–16 vertex benchmark-shaped graphs, embedded
// on C(8,8,4) by the CMR search and parameter-set with the default chain
// strength. About 32 of each program's 512 spins are active.
func embeddedPrograms(tb testing.TB, count int) []*qubo.Ising {
	tb.Helper()
	hw := graph.Vesuvius().Graph()
	rng := rand.New(rand.NewSource(1))
	out := make([]*qubo.Ising, 0, count)
	for i := 0; i < count; i++ {
		logical := qubo.ToIsing(qubo.MaxCut(benchShapedGraph(rng, 10+i%7), nil))
		vm, _, err := embed.FindEmbedding(logical.Graph(), hw, rand.New(rand.NewSource(int64(i))), embed.Options{MaxTries: 20})
		if err != nil {
			tb.Fatalf("program %d: %v", i, err)
		}
		em, err := embed.SetParameters(logical, vm, hw, 0)
		if err != nil {
			tb.Fatalf("program %d: %v", i, err)
		}
		out = append(out, em.Model)
	}
	return out
}

// pmJChimera is a ±J spin glass on C(cells,cells,4) with ±1 or zero biases:
// every spin is coupled, so every spin is active.
func pmJChimera(cells int, seed int64, biased bool) *qubo.Ising {
	rng := rand.New(rand.NewSource(seed))
	g := graph.Chimera{M: cells, N: cells, L: 4}.Graph()
	m := qubo.NewIsing(g.Order())
	for _, e := range g.Edges() {
		m.SetCoupling(e.U, e.V, float64(2*rng.Intn(2)-1))
	}
	if biased {
		for i := range m.H {
			m.H[i] = float64(rng.Intn(3) - 1)
		}
	}
	m.Offset = -3.5
	return m
}

// oddSpins mixes what the active-spin renumbering must get right: isolated
// biased spins (active, no couplings), −0.0 biases on coupled and on
// uncoupled spins, a coupling stored as 0 (active, but every field update
// adds ±0), frozen +0 spins, and active spins spread over the index range.
func oddSpins() *qubo.Ising {
	negZero := math.Copysign(0, -1)
	m := qubo.NewIsing(48)
	for i := 0; i < 9; i++ { // a frustrated ring on 0..9
		m.SetCoupling(i, i+1, float64(1-2*(i%3&1))*0.75)
	}
	m.SetCoupling(9, 0, 1.25)
	for i := 10; i < 15; i++ {
		m.H[i] = 0.5 * float64(1-2*(i%2)) // isolated and biased
	}
	for i := 15; i < 20; i++ {
		m.H[i] = negZero // isolated −0.0: frozen
	}
	m.H[3], m.H[7] = negZero, negZero // coupled −0.0
	m.H[2] = 0.3
	m.J[graph.Edge{U: 30, V: 31}] = 0 // active through a zero coupling
	m.SetCoupling(40, 47, -2)
	m.H[44] = -0.125
	m.Offset = 1.5
	return m
}

// digestReads hashes every read's spins and energy bits.
func digestReads(h hash.Hash, set *SampleSet) {
	for _, smp := range set.Samples {
		digestRead(h, smp.Spins, smp.Energy)
	}
}

func digestRead(h hash.Hash, spins []int8, energy float64) {
	buf := make([]byte, len(spins), len(spins)+8)
	for i, s := range spins {
		buf[i] = byte(s)
	}
	h.Write(binary.LittleEndian.AppendUint64(buf, math.Float64bits(energy)))
}

// scalarKernelDigest runs the scalar kernel over the golden corpus: fresh
// reads through the collection path and AnnealFrom from given states.
func scalarKernelDigest(tb testing.TB) string {
	h := sha256.New()
	programs := embeddedPrograms(tb, 32)
	for p, m := range programs {
		s := NewSampler(m, SamplerOptions{Sweeps: 256})
		digestReads(h, s.SampleParallel(4, 1, int64(p)))
	}
	models := []*qubo.Ising{
		pmJChimera(2, 1, false), pmJChimera(2, 2, true), pmJChimera(4, 3, true),
		oddSpins(), qubo.NewIsing(8), qubo.NewIsing(0),
	}
	models[4].Offset = 2
	for k, m := range models {
		s := NewSampler(m, SamplerOptions{Sweeps: 64})
		digestReads(h, s.SampleParallel(8, 1, int64(100+k)))
	}
	// One device reprogrammed across shapes recompiles into the storage of
	// the program before: sparse, dense, empty and sparse again.
	d := NewDevice(DW2Timings(), SamplerOptions{Sweeps: 64})
	drng := rand.New(rand.NewSource(5))
	for _, m := range []*qubo.Ising{programs[3], models[2], oddSpins(), models[5], programs[17], models[0]} {
		d.Program(m)
		set, err := d.Execute(4, drng)
		if err != nil {
			tb.Fatal(err)
		}
		digestReads(h, set)
	}
	// AnnealFrom keeps the caller's inactive spins: start from all −1 and
	// from random states, on embedded programs and on the odd model.
	rng := rand.New(rand.NewSource(7))
	for k, m := range append(programs[:8:8], oddSpins()) {
		s := NewSampler(m, SamplerOptions{Sweeps: 128})
		spins := make([]int8, m.Dim())
		for i := range spins {
			spins[i] = -1
		}
		e := s.AnnealFrom(spins, rng)
		digestRead(h, spins, e)
		for i := range spins {
			spins[i] = int8(2*rng.Intn(2) - 1)
		}
		e = s.AnnealFrom(spins, rand.New(rand.NewSource(int64(k))))
		digestRead(h, spins, e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScalarKernelGolden pins the scalar Metropolis kernel's output, spins
// and energy bits of every read, to the digest recorded before the sweep
// was compacted onto the active spins.
func TestScalarKernelGolden(t *testing.T) {
	if got := scalarKernelDigest(t); got != scalarKernelGolden {
		t.Fatalf("scalar kernel digest = %s, want %s", got, scalarKernelGolden)
	}
}
