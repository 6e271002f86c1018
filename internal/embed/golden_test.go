package embed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"github.com/splitexec/splitexec/internal/graph"
)

// goldenDigest is the SHA-256 of every search in goldenCorpus, recorded
// before the search kernel was last rewritten. Any change to a vertex model,
// to a Stats count or to how much randomness a search consumes changes it.
// Because Stats is hashed, RelaxedEdges and DijkstraRuns are pinned, and
// ObservedOps stays comparable with the paper's op-count model.
const goldenDigest = "e9344692358d660a0a4650f34107ca60747733c5d7ab8fd8fa8e1faadc9db8bf"

// goldenCorpus is the fixed search corpus: 40 connected graphs of degree at
// most 3 on 8–19 vertices, drawn like the benchmark's inputs, then K4–K7.
func goldenCorpus() []*graph.Graph {
	rng := rand.New(rand.NewSource(20160523))
	var gs []*graph.Graph
	for i := 0; i < 40; i++ {
		gs = append(gs, sparseTestGraph(rng, 8+i%12))
	}
	for n := 4; n <= 7; n++ {
		gs = append(gs, graph.Complete(n))
	}
	return gs
}

// sparseTestGraph draws a connected graph on n vertices with degree at most
// 3: a random recursive tree plus n/4 extra edges.
func sparseTestGraph(rng *rand.Rand, n int) *graph.Graph {
	const maxDegree = 3
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
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestFindEmbeddingGolden searches the corpus on intact and faulted
// C(8,8,4), graph i with seed i and MaxTries 20, and hashes each search's
// vertex model, Stats, error and the next rng.Int63().
func TestFindEmbeddingGolden(t *testing.T) {
	hw := graph.Vesuvius().Graph()
	faulted := graph.RandomFaults(hw, 0.03, 0.02, rand.New(rand.NewSource(9))).Apply(hw)
	corpus := goldenCorpus()
	h := sha256.New()
	for _, target := range []*graph.Graph{hw, faulted} {
		for i, g := range corpus {
			hashSearch(h, g, target, int64(i), Options{MaxTries: 20})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("golden digest = %s, want %s: an embedding, a Stats count or the rng stream changed", got, goldenDigest)
	}
}

// goldenConfigsDigest is the SHA-256 of TestFindEmbeddingGoldenConfigs'
// searches, recorded before the searches learned to stop early.
const goldenConfigsDigest = "7006435669bac1fd24b91197c1f76f82b8fef283caa1fd8ef36d2a01b51f3677"

// TestFindEmbeddingGoldenConfigs hashes the corpus, as
// TestFindEmbeddingGolden does, under the settings that test leaves out:
// PenaltyBase 1.3, 2 and 16, whose path costs are not all integers, each on
// intact C(8,8,4) and on faulted C(4,4,4), where many searches fail, once
// with Deterministic, at MaxTries 3.
func TestFindEmbeddingGoldenConfigs(t *testing.T) {
	small := graph.Chimera{M: 4, N: 4, L: 4}.Graph()
	intact := graph.Vesuvius().Graph()
	faulted := graph.RandomFaults(small, 0.03, 0.02, rand.New(rand.NewSource(11))).Apply(small)
	corpus := goldenCorpus()
	h := sha256.New()
	for i, base := range []float64{1.3, 2, 16} {
		for j, target := range []*graph.Graph{intact, faulted} {
			opts := Options{MaxTries: 3, PenaltyBase: base, Deterministic: (i+j)%2 == 1}
			for k, g := range corpus {
				hashSearch(h, g, target, int64(k), opts)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenConfigsDigest {
		t.Fatalf("digest = %s, want %s: an embedding, a Stats count or the rng stream changed", got, goldenConfigsDigest)
	}
}

// hashSearch embeds g into target with seed and opts, and hashes the vertex
// model, Stats, error and the next rng.Int63().
func hashSearch(h hash.Hash, g, target *graph.Graph, seed int64, opts Options) {
	rng := rand.New(rand.NewSource(seed))
	vm, stats, err := FindEmbedding(g, target, rng, opts)
	writeInts(h, g.Order(), g.Size())
	for v := 0; v < g.Order(); v++ {
		writeInts(h, len(vm[v]))
		writeInts(h, vm[v]...)
	}
	writeInts(h, stats.Tries, stats.Sweeps, stats.DijkstraRuns, stats.RelaxedEdges,
		stats.PhysicalQubits, stats.MaxChainLength)
	if err != nil {
		h.Write([]byte(err.Error()))
	}
	writeInts(h, int(rng.Int63()))
}

func writeInts(h hash.Hash, xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}
