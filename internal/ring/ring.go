// Package ring implements the consistent-hash ring behind the sharded
// dispatch fabric: keys (embedding-cache hashes for QUBO jobs, class labels
// for profile jobs) map onto shard members through hashed virtual nodes, so
// membership changes move only the keys the departed or arrived member
// owned — about 1/N of the key space per member, never a full reshuffle.
// That bounded movement is what keeps each shard's embedding cache hot
// across rebalances.
//
// Virtual-node names and keys pass through one mixed hash (FNV-1a, then the
// splitmix64 finalizer), so each member's arcs sum to near its fair share
// of the circle.
//
// Everything is deterministic: the same member list and the same key always
// resolve to the same owner, on every box and at every GOMAXPROCS — the
// property that lets the discrete-event simulator predict the exact shard
// assignment the live router makes.
package ring

import (
	"fmt"
	"sort"
)

// DefaultReplicas is the virtual-node count per member; membership changes
// cost O(replicas · log points). At 64 points each, every member of a 2–8
// member ring owns between 0.78 and 1.19 times its fair share of the circle
// (TestArcShareBalanced pins [0.7, 1.3]), and the benchmark's 32 library
// keys split 16/16 over two members.
const DefaultReplicas = 64

// point is one virtual node: a position on the hash circle owned by member
// index idx.
type point struct {
	hash uint64
	idx  int
}

// Ring is an immutable consistent-hash ring over an ordered member list.
// Mutating membership means building a new Ring (see Without) — the router
// swaps rings atomically on shard loss or join, so lookups never lock.
type Ring struct {
	members []string
	points  []point
}

// New builds a ring over members with replicas virtual nodes each
// (replicas <= 0 selects DefaultReplicas). Member order defines the index
// space Owner reports; duplicate member names would alias ownership and
// panic.
func New(members []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{members: append([]string(nil), members...)}
	seen := make(map[string]struct{}, len(members))
	for i, m := range r.members {
		if _, dup := seen[m]; dup {
			panic(fmt.Sprintf("ring: duplicate member %q", m))
		}
		seen[m] = struct{}{}
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{
				hash: hash64(fmt.Sprintf("%s#%d", m, v)),
				idx:  i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions between virtual nodes are broken by member
		// index so the ring stays deterministic even then.
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// Members returns the ring's member list in index order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member index owning key: the first virtual node at or
// clockwise after the key's hash. It returns -1 on an empty ring.
func (r *Ring) Owner(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.points[i].idx
}

// Lookup returns the member name owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	i := r.Owner(key)
	if i < 0 {
		return ""
	}
	return r.members[i]
}

// Without builds the ring that remains when the member at index idx leaves.
// Member indices of the new ring follow the surviving order; callers that
// need stable identities should map through Members(). Keys owned by
// surviving members keep their owner — only the departed member's arcs move.
func (r *Ring) Without(idx int) *Ring {
	if idx < 0 || idx >= len(r.members) {
		return r
	}
	rest := make([]string, 0, len(r.members)-1)
	rest = append(rest, r.members[:idx]...)
	rest = append(rest, r.members[idx+1:]...)
	replicas := 0
	if len(r.members) > 0 {
		replicas = len(r.points) / len(r.members)
	}
	return New(rest, replicas)
}

// hash64 is FNV-1a followed by the splitmix64 finalizer, inlined so the
// ring has no dependencies and the hash can never drift between the router
// and the simulator. Bare FNV-1a leaves names that differ only in their last
// bytes close together on the circle: its vnode points cluster, and one of
// two members owned 91% of it. The finalizer spreads every bit of the
// FNV-1a state over the whole word, which breaks that clustering.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Hash exposes the ring's key hash, the one Owner places keys with, so
// callers can test a key against Moved's ranges (the router does, to pick
// which cached keys a membership change re-homes).
func Hash(s string) uint64 { return hash64(s) }
