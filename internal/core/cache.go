package core

import (
	"sync"

	"github.com/splitexec/splitexec/internal/graph"
)

// EmbeddingCache implements the paper's proposed off-line embedding
// optimization (§3.3/§4): "use some variant of off-line embedding, in which
// specific input graphs are pre-embedded and stored in a graph lookup table
// ... use of the lookup table would require some variant of graph
// isomorphism to identify which embedding to apply."
//
// Entries are keyed by a relabeling-invariant hash; on a hash hit an exact
// isomorphism search maps the stored embedding onto the query's labels. The
// cache is safe for concurrent use.
type EmbeddingCache struct {
	mu      sync.Mutex
	entries map[string][]cacheEntry
	hits    int
	misses  int
}

type cacheEntry struct {
	g  *graph.Graph
	vm graph.VertexModel
}

// NewEmbeddingCache returns an empty cache.
func NewEmbeddingCache() *EmbeddingCache {
	return &EmbeddingCache{entries: make(map[string][]cacheEntry)}
}

// Store records an embedding of g. The graph and vertex model are cloned so
// later mutations by the caller cannot corrupt the cache.
func (c *EmbeddingCache) Store(g *graph.Graph, vm graph.VertexModel) {
	c.store(graph.CanonicalHash(g), g, vm)
}

// Lookup returns an embedding for any graph isomorphic to a stored one,
// relabeled onto g's vertices, or nil on a miss.
func (c *EmbeddingCache) Lookup(g *graph.Graph) graph.VertexModel {
	return c.lookup(graph.CanonicalHash(g), g)
}

// store is Store with g's key, graph.CanonicalHash(g), already computed.
func (c *EmbeddingCache) store(key string, g *graph.Graph, vm graph.VertexModel) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = append(c.entries[key], cacheEntry{g: g.Clone(), vm: vm.Clone()})
}

// lookup is Lookup with g's key, graph.CanonicalHash(g), already computed.
func (c *EmbeddingCache) lookup(key string, g *graph.Graph) graph.VertexModel {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[key] {
		iso := graph.FindIsomorphism(e.g, g)
		if iso == nil {
			continue
		}
		vm := make(graph.VertexModel, len(e.vm))
		for v, chain := range e.vm {
			vm[iso[v]] = append([]int(nil), chain...)
		}
		c.hits++
		return vm
	}
	c.misses++
	return nil
}

// Stats returns cumulative hit/miss counts.
func (c *EmbeddingCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of stored embeddings.
func (c *EmbeddingCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, es := range c.entries {
		n += len(es)
	}
	return n
}
