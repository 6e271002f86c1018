package core

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
)

// TestEmbeddingCacheConcurrent hammers one shared cache from many
// goroutines — the dispatch service's usage pattern, where every worker
// consults and populates the same off-line table. Run under -race (CI
// does), this pins the cache's concurrent-use guarantee.
func TestEmbeddingCacheConcurrent(t *testing.T) {
	hw := graph.Chimera{M: 4, N: 4, L: 4}.Graph()
	inputs := []*graph.Graph{
		graph.Cycle(6),
		graph.Path(7),
		graph.Star(6),
		graph.Grid(2, 4),
		graph.Complete(4),
	}
	// Pre-compute one valid embedding per input serially.
	vms := make([]graph.VertexModel, len(inputs))
	for i, g := range inputs {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		vm, _, err := embed.FindEmbedding(g, hw, rng, embed.Options{MaxTries: 20})
		if err != nil {
			t.Fatalf("embedding input %d: %v", i, err)
		}
		vms[i] = vm
	}

	cache := NewEmbeddingCache()
	const (
		goroutines = 16
		iterations = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				i := (w + it) % len(inputs)
				switch it % 4 {
				case 0:
					cache.Store(inputs[i], vms[i])
				case 1:
					if vm := cache.Lookup(inputs[i]); vm != nil {
						// A concurrent hit must always be a valid minor.
						if err := graph.ValidateMinor(inputs[i], hw, vm, true); err != nil {
							t.Errorf("goroutine %d: invalid cached embedding: %v", w, err)
							return
						}
					}
				case 2:
					cache.Stats()
				case 3:
					cache.Len()
				}
			}
		}(w)
	}
	wg.Wait()

	// After the storm, every input graph must resolve.
	for i, g := range inputs {
		vm := cache.Lookup(g)
		if vm == nil {
			t.Errorf("input %d: lookup missed after concurrent stores", i)
			continue
		}
		if err := graph.ValidateMinor(g, hw, vm, true); err != nil {
			t.Errorf("input %d: invalid embedding after concurrent stores: %v", i, err)
		}
	}
	hits, misses := cache.Stats()
	if hits+misses == 0 {
		t.Error("cache recorded no lookups")
	}
}

// TestEmbeddingCacheIsolation: stored graphs and vertex models are cloned,
// so caller-side mutation cannot corrupt later lookups.
func TestEmbeddingCacheIsolation(t *testing.T) {
	hw := graph.Chimera{M: 4, N: 4, L: 4}.Graph()
	g := graph.Cycle(5)
	rng := rand.New(rand.NewSource(1))
	vm, _, err := embed.FindEmbedding(g, hw, rng, embed.Options{MaxTries: 20})
	if err != nil {
		t.Fatalf("embedding: %v", err)
	}
	cache := NewEmbeddingCache()
	cache.Store(g, vm)
	// Mutate the caller's copies after Store.
	vm[0] = append(vm[0], vm[0]...)
	g.AddEdge(0, 2)

	fresh := graph.Cycle(5)
	got := cache.Lookup(fresh)
	if got == nil {
		t.Fatal("lookup missed")
	}
	if err := graph.ValidateMinor(fresh, hw, got, true); err != nil {
		t.Errorf("mutation leaked into the cache: %v", err)
	}
}

// TestEmbeddingCacheEvictsOldest makes cacheCap+k stores: the cache keeps
// the newest cacheCap, the oldest k miss, and hits and misses are counted
// as before. Two of the stores share a key, as non-isomorphic graphs with
// equal hashes do, and only the older of the two is evicted.
func TestEmbeddingCacheEvictsOldest(t *testing.T) {
	const k = 3
	path, triangle := graph.Path(3), graph.Cycle(3)
	vm := graph.VertexModel{0: {0}, 1: {1}, 2: {2}}
	key := func(i int) string {
		if i == k-1 || i == k {
			return "shared"
		}
		return strconv.Itoa(i)
	}
	cache := NewEmbeddingCache()
	for i := 0; i < cacheCap+k; i++ {
		g := path
		if i == k {
			g = triangle
		}
		cache.store(key(i), g, vm)
	}
	if n := cache.Len(); n != cacheCap {
		t.Fatalf("Len = %d after %d stores, want %d", n, cacheCap+k, cacheCap)
	}
	for i := 0; i < k; i++ {
		if cache.lookup(key(i), path) != nil {
			t.Errorf("store %d of the oldest %d was not evicted", i, k)
		}
	}
	if cache.lookup("shared", triangle) == nil {
		t.Error("the newer embedding under a shared key was evicted")
	}
	for i := k + 1; i < cacheCap+k; i++ {
		if cache.lookup(key(i), path) == nil {
			t.Fatalf("store %d missed", i)
		}
	}
	if hits, misses := cache.Stats(); hits != cacheCap || misses != k {
		t.Errorf("Stats = %d hits, %d misses; want %d, %d", hits, misses, cacheCap, k)
	}
}
