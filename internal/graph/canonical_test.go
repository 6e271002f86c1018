package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// canonicalGolden is the SHA-256 over CanonicalHash of every graph in
// canonicalCorpus, recorded before CanonicalHash stopped allocating per
// vertex. The hash is the embedding cache's key and the router's shard key,
// and the benchmark deduplicates its inputs by it, so any change to its
// output moves cache entries, ring placements and benchmark inputs.
const canonicalGolden = "c088edcedcab3f203d691a9f01f29dd40380870cf4a724b2393e98e6ae820c33"

// canonicalCorpus covers the empty graph, isolated vertices, graphs of
// several components, connected degree-≤3 graphs of 10–16 vertices drawn
// like the benchmark's inputs, random dense graphs of up to 40 vertices, and
// the C(2,2,4) and C(8,8,4) Chimera graphs.
func canonicalCorpus() []*Graph {
	gs := []*Graph{New(0), New(1), New(7)}
	components := New(12)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {7, 8}, {8, 9}, {9, 7}} {
		components.AddEdge(e[0], e[1])
	}
	gs = append(gs, components, GNP(30, 0.05, rand.New(rand.NewSource(3))))
	rng := rand.New(rand.NewSource(20161018))
	for i := 0; i < 70; i++ {
		gs = append(gs, sparseDegree3(rng, 10+i%7))
	}
	for n := 0; n <= 40; n += 2 {
		gs = append(gs, GNP(n, 0.2+0.6*rng.Float64(), rng))
	}
	return append(gs, Chimera{M: 2, N: 2, L: 4}.Graph(), Vesuvius().Graph())
}

// sparseDegree3 draws a connected graph on n vertices with degree at most
// 3: a random recursive tree plus n/4 extra edges.
func sparseDegree3(rng *rand.Rand, n int) *Graph {
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[rng.Intn(i)]
		for g.Degree(u) >= 3 {
			u = perm[rng.Intn(i)]
		}
		g.AddEdge(perm[i], u)
	}
	for g.Size() < n-1+n/4 {
		if u, v := rng.Intn(n), rng.Intn(n); g.Degree(u) < 3 && g.Degree(v) < 3 {
			g.AddEdge(u, v)
		}
	}
	return g
}

func TestCanonicalHashGolden(t *testing.T) {
	h := sha256.New()
	for _, g := range canonicalCorpus() {
		h.Write([]byte(CanonicalHash(g) + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != canonicalGolden {
		t.Fatalf("CanonicalHash corpus digest = %s, want %s", got, canonicalGolden)
	}
}

// TestCanonicalHashAllocs bounds the hash of a 16-vertex benchmark-shaped
// graph: one scratch slice, one byte buffer and the hex string.
func TestCanonicalHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := sparseDegree3(rand.New(rand.NewSource(1)), 16)
	if n := testing.AllocsPerRun(100, func() { CanonicalHash(g) }); n > 4 {
		t.Errorf("CanonicalHash allocates %.0f objects per call, want at most 4", n)
	}
}

func BenchmarkCanonicalHash(b *testing.B) {
	g := sparseDegree3(rand.New(rand.NewSource(1)), 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalHash(g)
	}
}
