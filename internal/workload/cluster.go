// Cluster topology: the federated half of a scenario. A ClusterSpec scales
// the per-shard deployment (SystemSpec) out to N shards behind a
// consistent-hash router tier — the regime of the ROADMAP's
// millions-of-users north star, where one node's worth of hosts and QPUs
// (the paper's Fig. 1 unit) is the building block, not the system. The
// shard-key derivation and the route table live here so the discrete-event
// simulator and the live router (internal/router) make one routing
// decision from the same code.
package workload

import (
	"fmt"

	"github.com/splitexec/splitexec/internal/ring"
)

// MaxShards bounds the cluster fan-out a scenario may declare: hostile
// specs must not be able to demand memory for millions of shards.
const MaxShards = 256

// Membership event kinds: a shard joining the ring, or a planned drain
// (the shard leaves the ring gracefully — queued work re-routes, in-flight
// work completes — as opposed to the crash semantics of FaultSpec.Shard).
const (
	JoinEvent  = "join"
	DrainEvent = "drain"
)

// MemberEvent schedules a membership change at virtual time At. Joins must
// target fresh slots in order (the first join is shard Shards, the next
// Shards+1, …) — the same indices the live router assigns to dynamically
// added shards, which is what keeps the DES's ring member names and the
// router's in agreement. Drains may target any currently-present shard.
type MemberEvent struct {
	Kind  string   `json:"kind"`
	Shard int      `json:"shard"`
	At    Duration `json:"at"`
}

// ClusterSpec federates the scenario's System across Shards identical
// shards behind a consistent-hash router. Nil (the default) is the
// single-node deployment every pre-cluster scenario describes.
type ClusterSpec struct {
	// Shards is the initial shard count; each shard runs the full
	// SystemSpec (Hosts workers, QPUs() devices).
	Shards int `json:"shards"`
	// StealThreshold enables cross-shard work stealing: a job whose home
	// shard's backlog has reached this length goes to the shard with the
	// strictly shortest backlog, the lowest index among equals; a home
	// that ties the shortest backlog keeps the job (RouteTable.Route).
	// Zero disables stealing — jobs always follow hash ownership.
	StealThreshold int `json:"stealThreshold,omitempty"`
	// Replicas is the ring's virtual-node count per shard; zero selects
	// ring.DefaultReplicas.
	Replicas int `json:"replicas,omitempty"`
	// Events schedules elastic membership changes — shard joins and
	// planned drains at virtual times — strictly ordered by time. The DES
	// realizes them deterministically and the storm runner drives the same
	// schedule through the live router's AddShard/DrainShard hooks.
	Events []MemberEvent `json:"events,omitempty"`
}

// validate checks the spec.
func (c *ClusterSpec) validate() error {
	if c.Shards < 1 || c.Shards > MaxShards {
		return fmt.Errorf("workload: cluster shards %d outside [1, %d]", c.Shards, MaxShards)
	}
	if c.StealThreshold < 0 {
		return fmt.Errorf("workload: negative stealThreshold %d", c.StealThreshold)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("workload: negative ring replicas %d", c.Replicas)
	}
	return c.validateEvents()
}

// validateEvents replays the membership schedule against the evolving
// member set, rejecting anything the router could not realize: negative or
// overlapping times, a join of a slot that is (or ever was) provisioned, a
// drain of an absent shard, or a schedule that empties the ring.
func (c *ClusterSpec) validateEvents() error {
	if len(c.Events) == 0 {
		return nil
	}
	present := make(map[int]bool, c.Shards)
	for i := 0; i < c.Shards; i++ {
		present[i] = true
	}
	provisioned := c.Shards // next fresh slot a join may claim
	live := c.Shards
	last := Duration(-1)
	for i, e := range c.Events {
		if e.At < 0 {
			return fmt.Errorf("workload: membership event %d has negative time %v", i, e.At)
		}
		if e.At <= last {
			return fmt.Errorf("workload: membership events must be strictly ordered in time (event %d at %v overlaps %v)", i, e.At, last)
		}
		last = e.At
		switch e.Kind {
		case JoinEvent:
			if present[e.Shard] {
				return fmt.Errorf("workload: membership event %d joins already-present shard %d", i, e.Shard)
			}
			if e.Shard != provisioned {
				return fmt.Errorf("workload: membership event %d joins shard %d; joins must claim fresh slots in order (next is %d)", i, e.Shard, provisioned)
			}
			if provisioned+1 > MaxShards {
				return fmt.Errorf("workload: membership events provision more than %d shards", MaxShards)
			}
			present[e.Shard] = true
			provisioned++
			live++
		case DrainEvent:
			if !present[e.Shard] {
				return fmt.Errorf("workload: membership event %d drains unknown shard %d", i, e.Shard)
			}
			if live == 1 {
				return fmt.Errorf("workload: membership event %d would drain the last shard", i)
			}
			present[e.Shard] = false
			live--
		default:
			return fmt.Errorf("workload: membership event %d has unknown kind %q (want %q or %q)", i, e.Kind, JoinEvent, DrainEvent)
		}
	}
	return nil
}

// ShardCount is the scenario's effective shard count (1 without a cluster).
func (sc *Scenario) ShardCount() int {
	if sc.Cluster == nil {
		return 1
	}
	return sc.Cluster.Shards
}

// StealThreshold is the scenario's effective work-stealing threshold
// (0 = stealing disabled).
func (sc *Scenario) StealThreshold() int {
	if sc.Cluster == nil {
		return 0
	}
	return sc.Cluster.StealThreshold
}

// ShardName is the ring member name of shard i. The DES, the live router
// and the capacity planner all derive membership from these names, so hash
// ownership agrees everywhere by construction.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// ClassKey is the shard key of a profile job: jobs of one workload class
// share a key, so a class's working set (and its embedding-cache locality,
// for QUBO classes) stays pinned to one home shard.
func ClassKey(class int) string { return fmt.Sprintf("class-%d", class) }

// RouteTable is the one routing decision the discrete-event simulator and
// the live router share: an immutable consistent-hash ring over the
// routable shard slots plus the steal rule. Both rebuild their table when
// membership changes (a shard goes down or comes back, joins or drains)
// and route every job through Route, so their assignments agree by
// construction rather than by keeping two copies in step.
type RouteTable struct {
	slots []int      // routable slots, ascending; ring member i is slots[i]
	ring  *ring.Ring // over ShardName(slot), in slot order
}

// NewRouteTable builds the table over the routable slots, given in
// ascending order, with replicas virtual nodes per shard (0 selects
// ring.DefaultReplicas). The table keeps slots; callers must not reuse it.
func NewRouteTable(slots []int, replicas int) *RouteTable {
	names := make([]string, len(slots))
	for i, s := range slots {
		names[i] = ShardName(s)
	}
	return &RouteTable{slots: slots, ring: ring.New(names, replicas)}
}

// Ring is the table's hash ring over the routable slots; its member i is
// the i-th routable slot.
func (t *RouteTable) Ring() *ring.Ring { return t.ring }

// Route resolves key to its home slot, the ring owner, and the target slot
// the job is dispatched to. With steal > 0 and a home backlog of at least
// steal, the job moves to the routable slot with the strictly shortest
// backlog, the lowest slot among equals; a home that ties the shortest
// backlog keeps the job. avoid is a slot the job must not be sent back to,
// the one whose dial or round trip just failed it, or -1 for none: a target
// equal to avoid moves to the routable slot with the shortest backlog among
// the others, the lowest slot among equals, and stays when there is no
// other. backlog is consulted only when steal > 0 or the target is avoid.
// Both are -1 when no slot is routable.
func (t *RouteTable) Route(key string, steal, avoid int, backlog func(slot int) int) (home, target int) {
	if len(t.slots) == 0 {
		return -1, -1
	}
	home = t.slots[t.ring.Owner(key)]
	target = home
	if steal > 0 {
		if shortest := backlog(home); shortest >= steal {
			for _, s := range t.slots {
				if b := backlog(s); b < shortest {
					target, shortest = s, b
				}
			}
		}
	}
	if target == avoid {
		shortest := 0
		for _, s := range t.slots {
			if s == avoid {
				continue
			}
			if b := backlog(s); target == avoid || b < shortest {
				target, shortest = s, b
			}
		}
	}
	return home, target
}

// HasShardFault reports whether the scenario kills a shard mid-run.
func (sc *Scenario) HasShardFault() bool {
	return sc.Faults != nil && sc.Faults.Shard != nil
}

// MemberEvents returns the scenario's membership schedule (nil-safe).
func (sc *Scenario) MemberEvents() []MemberEvent {
	if sc.Cluster == nil {
		return nil
	}
	return sc.Cluster.Events
}

// TotalShards is the number of shard slots the scenario ever provisions:
// the initial membership plus every scheduled join. The DES sizes its shard
// table — and the storm runner its service fleet — from this, so joined
// shards exist (devices, outage streams) before they enter the ring.
func (sc *Scenario) TotalShards() int {
	n := sc.ShardCount()
	for _, e := range sc.MemberEvents() {
		if e.Kind == JoinEvent && e.Shard+1 > n {
			n = e.Shard + 1
		}
	}
	return n
}
