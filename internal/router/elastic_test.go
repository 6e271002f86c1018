package router

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/ring"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/workload"
)

// TestRouterElasticAddUnderLoad is the live half of the elastic acceptance:
// a third shard joins a loaded two-shard router through the wire admin
// verb. The ledger must conserve across the epoch flip — every submission
// completes exactly once, none lost, none failed — post-flip routing must
// match the grown ring exactly (only ring-predicted keys change owner), and
// responses must carry the new epoch.
func TestRouterElasticAddUnderLoad(t *testing.T) {
	old := clusterRing(2)
	grown := old.With(workload.ShardName(2))
	moved := ring.Moved(old, grown)
	// Which classes the join re-homes is the ring's choice: load as many
	// classes as it takes for the diff to move one onto the joiner.
	classes := 3
	for classes < 8 && !classMoves(moved, classes) {
		classes++
	}
	if !classMoves(moved, classes) {
		t.Fatalf("precondition: joining shard 2 re-homes none of %d classes — the test would check nothing", classes)
	}

	addrs, _ := startShards(t, 3) // third backend is live but outside the router
	rt, err := New(Options{Shards: addrs[:2], PingEvery: -1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()
	front, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var submitted, completed, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := service.Dial(front.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				submitted.Add(1)
				if _, err := c.Do(profileReq((w + i) % classes)); err != nil {
					failed.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond) // the fabric is demonstrably loaded

	admin, err := service.Dial(front.String())
	if err != nil {
		t.Fatal(err)
	}
	reply, err := admin.Admin(service.WireAdmin{Verb: service.AdminAdd, Addr: addrs[2]})
	admin.Close()
	if err != nil {
		t.Fatalf("admin add: %v", err)
	}
	if reply.Index != 2 {
		t.Fatalf("add assigned index %d, want 2", reply.Index)
	}
	if reply.Epoch != 1 {
		t.Fatalf("post-add epoch %d, want 1", reply.Epoch)
	}

	time.Sleep(30 * time.Millisecond) // post-join steady state under load
	close(stop)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d jobs lost across the epoch flip", n)
	}
	if completed.Load() != submitted.Load() {
		t.Fatalf("ledger leak: %d completed of %d submitted", completed.Load(), submitted.Load())
	}
	st := rt.Stats()
	if st.Failed != 0 {
		t.Fatalf("router failed %d jobs during the transition", st.Failed)
	}
	var dispatched int64
	for _, n := range st.Dispatched {
		dispatched += n
	}
	if dispatched < completed.Load() {
		t.Errorf("dispatch ledger %d below completions %d", dispatched, completed.Load())
	}

	// Post-flip ownership is exactly the grown ring's, and every moved
	// class is one the diff predicted.
	c, err := service.Dial(front.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	joinerServed := false
	for class := 0; class < classes; class++ {
		resp, err := c.Do(profileReq(class))
		if err != nil {
			t.Fatalf("post-join class %d: %v", class, err)
		}
		if resp.Routing == nil {
			t.Fatal("routed response missing routing metadata")
		}
		key := workload.ClassKey(class)
		want := grown.Owner(key)
		if resp.Routing.Shard != want {
			t.Errorf("class %d served by shard %d, grown ring owns %d", class, resp.Routing.Shard, want)
		}
		if resp.Routing.Epoch != 1 {
			t.Errorf("class %d routed under epoch %d, want 1", class, resp.Routing.Epoch)
		}
		movedKey := old.Owner(key) != want
		if predicted := ring.Covers(moved, ring.Hash(key)); predicted != movedKey {
			t.Errorf("class %d moved=%v but diff predicts %v", class, movedKey, predicted)
		}
		if want == 2 {
			joinerServed = true
		}
	}
	if !joinerServed {
		t.Error("no class re-homed to the joiner — the transition moved nothing")
	}
}

// classMoves reports whether the ranges re-home any of the first n classes.
func classMoves(ranges []ring.Range, n int) bool {
	for class := 0; class < n; class++ {
		if ring.Covers(ranges, ring.Hash(workload.ClassKey(class))) {
			return true
		}
	}
	return false
}

// TestRouterDrainShardGraceful: DrainShard retires a loaded shard without
// evicting it — queued work re-homes for free, in-flight work completes,
// zero failures — and post-drain routing follows the shrunken ring.
func TestRouterDrainShardGraceful(t *testing.T) {
	addrs, _ := startShards(t, 3)
	rt, err := New(Options{Shards: addrs, PingEvery: -1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	victim := clusterRing(3).Owner(workload.ClassKey(0))
	const jobs = 120
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rt.Submit(profileReq(i % 3)); err != nil {
				failed.Add(1)
			}
		}(i)
	}
	time.Sleep(3 * time.Millisecond)
	if err := rt.DrainShard(victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d jobs lost across the drain", n)
	}
	st := rt.Stats()
	if st.Failed != 0 {
		t.Fatalf("router failed %d jobs across the drain", st.Failed)
	}
	if st.Evicted != 0 {
		t.Errorf("a graceful drain counted %d evictions", st.Evicted)
	}
	if st.Epoch != 1 {
		t.Errorf("post-drain epoch %d, want 1", st.Epoch)
	}

	// The survivors own everything now; the drained shard sees no traffic.
	survivors := make([]string, 0, 2)
	for i := 0; i < 3; i++ {
		if i != victim {
			survivors = append(survivors, workload.ShardName(i))
		}
	}
	rest := ring.New(survivors, 0)
	before := rt.Stats().Dispatched[victim]
	for class := 0; class < 6; class++ {
		resp, err := rt.Submit(profileReq(class))
		if err != nil {
			t.Fatalf("post-drain class %d: %v", class, err)
		}
		wantName := rest.Lookup(workload.ClassKey(class))
		if got := workload.ShardName(resp.Routing.Shard); got != wantName {
			t.Errorf("class %d served by %s, shrunken ring owns %s", class, got, wantName)
		}
	}
	if after := rt.Stats().Dispatched[victim]; after != before {
		t.Errorf("drained shard received %d new dispatches", after-before)
	}

	// Re-draining is an error; draining down to one shard is refused.
	if err := rt.DrainShard(victim); err == nil {
		t.Error("double drain succeeded")
	}
	others := []int{}
	for i := 0; i < 3; i++ {
		if i != victim {
			others = append(others, i)
		}
	}
	if err := rt.DrainShard(others[0]); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if err := rt.DrainShard(others[1]); err == nil || !strings.Contains(err.Error(), "last shard") {
		t.Errorf("draining the last shard: got %v, want last-shard refusal", err)
	}
}

// distinctQUBOs builds n small structurally-distinct problems (paths,
// cycles, stars of growing order), so each carries a distinct routing key.
func distinctQUBOs(t *testing.T, n int) []service.SolveRequest {
	t.Helper()
	var reqs []service.SolveRequest
	add := func(q *qubo.QUBO) {
		if len(reqs) < n {
			reqs = append(reqs, service.EncodeQUBO(q))
		}
	}
	for dim := 2; dim <= 6; dim++ { // paths P2..P6
		q := qubo.NewQUBO(dim)
		for i := 0; i+1 < dim; i++ {
			q.Set(i, i+1, 1)
			q.Set(i, i, -1)
		}
		add(q)
	}
	for dim := 3; dim <= 6; dim++ { // cycles C3..C6
		q := qubo.NewQUBO(dim)
		for i := 0; i < dim; i++ {
			q.Set(i, (i+1)%dim, 1)
			q.Set(i, i, -1)
		}
		add(q)
	}
	for dim := 4; dim <= 6; dim++ { // stars S4..S6
		q := qubo.NewQUBO(dim)
		for i := 1; i < dim; i++ {
			q.Set(0, i, 1)
			q.Set(i, i, -1)
		}
		add(q)
	}
	if len(reqs) < n {
		t.Fatalf("only %d distinct QUBOs available, want %d", len(reqs), n)
	}
	return reqs
}

// TestRouterAddShardWarmsMovedKeys: the hot keys the ring diff re-homes are
// replayed into the joining shard before its ownership flips — the
// embedding-cache warm-up — and the keys-moved/warmed ledgers record it.
func TestRouterAddShardWarmsMovedKeys(t *testing.T) {
	addrs, _ := startShards(t, 3)
	rt, err := New(Options{Shards: addrs[:2], PingEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	reqs := distinctQUBOs(t, 12)
	for i, req := range reqs {
		if _, err := rt.Submit(req); err != nil {
			t.Fatalf("seed solve %d: %v", i, err)
		}
	}
	old := clusterRing(2)
	moved := ring.Moved(old, old.With(workload.ShardName(2)))
	wantMoved := 0
	for _, req := range reqs {
		key, err := ShardKey(req)
		if err != nil {
			t.Fatal(err)
		}
		if ring.Covers(moved, ring.Hash(key)) {
			wantMoved++
		}
	}
	if wantMoved == 0 {
		t.Fatal("no seeded key moves on this join — the fixture cannot exercise warm-up")
	}

	idx, warmed, err := rt.AddShard(addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("assigned index %d, want 2", idx)
	}
	if warmed != wantMoved {
		t.Errorf("warmed %d keys, diff predicts %d", warmed, wantMoved)
	}
	st := rt.Stats()
	if st.KeysMoved != int64(wantMoved) || st.Warmed != int64(warmed) {
		t.Errorf("ledgers keysMoved=%d warmed=%d, want %d/%d", st.KeysMoved, st.Warmed, wantMoved, warmed)
	}
}

// TestRouterAdminWireVerbs pins the control-verb surface: status reflects
// membership transitions, unknown verbs are refused, and a plain service
// (not a router) refuses admin frames loudly.
func TestRouterAdminWireVerbs(t *testing.T) {
	addrs, _ := startShards(t, 3)
	rt, err := New(Options{Shards: addrs[:2], PingEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()
	front, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := service.Dial(front.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Admin(service.WireAdmin{Verb: service.AdminStatus})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 || st.Epoch != 0 {
		t.Fatalf("boot status: %d shards epoch %d, want 2/0", len(st.Shards), st.Epoch)
	}
	if _, err := c.Admin(service.WireAdmin{Verb: service.AdminAdd, Addr: addrs[2]}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admin(service.WireAdmin{Verb: service.AdminDrain, Shard: 0}); err != nil {
		t.Fatal(err)
	}
	st, err = c.Admin(service.WireAdmin{Verb: service.AdminStatus})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 || st.Epoch != 2 {
		t.Fatalf("post-transition status: %d shards epoch %d, want 3/2", len(st.Shards), st.Epoch)
	}
	if st.Shards[0].InRing || !st.Shards[0].Removed {
		t.Errorf("drained shard status %+v, want out of ring and removed", st.Shards[0])
	}
	if !st.Shards[2].InRing || !st.Shards[2].Up {
		t.Errorf("joined shard status %+v, want in ring and up", st.Shards[2])
	}

	if _, err := c.Admin(service.WireAdmin{Verb: "split"}); err == nil || !strings.Contains(err.Error(), "unknown admin verb") {
		t.Errorf("unknown verb: got %v", err)
	}
	direct, err := service.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.Admin(service.WireAdmin{Verb: service.AdminStatus}); err == nil || !strings.Contains(err.Error(), "router tier") {
		t.Errorf("plain service answered an admin frame: %v", err)
	}
}

// flakyShard is a deterministic half-failing backend: it alternately closes
// an accepted connection immediately (probe fails) and serves it properly
// (probe succeeds) — the flapping pattern that used to bounce a shard in
// and out of the ring every other ping.
type flakyShard struct {
	ln net.Listener
	n  atomic.Int64
}

func newFlakyShard(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &flakyShard{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go fs.accept()
	return ln.Addr().String()
}

func (fs *flakyShard) accept() {
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		if fs.n.Add(1)%2 == 1 {
			conn.Close() // this probe's round trip fails
			continue
		}
		go func() {
			defer conn.Close()
			for {
				var req service.SolveRequest
				if err := qpuserver.ReadMessage(conn, &req); err != nil {
					return
				}
				if err := qpuserver.WriteMessage(conn, &service.SolveResponse{OK: true}); err != nil {
					return
				}
			}
		}()
	}
}

// TestRouterHealthProbationStopsFlapping is the flapping regression: a
// deterministic half-failing shard must be evicted exactly once and then
// held out by probation — consecutive-success re-admission plus exponential
// probe backoff — instead of oscillating through the ring.
func TestRouterHealthProbationStopsFlapping(t *testing.T) {
	addrs, _ := startShards(t, 2)
	flaky := newFlakyShard(t)
	rt, err := New(Options{
		Shards:        []string{addrs[0], addrs[1], flaky},
		PingEvery:     5 * time.Millisecond,
		PingTimeout:   200 * time.Millisecond,
		PingFailLimit: 1,
		PingSuccLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	deadline := time.Now().Add(5 * time.Second)
	for rt.Up()[2] {
		if time.Now().After(deadline) {
			t.Fatal("health loop never evicted the flapping shard")
		}
		time.Sleep(time.Millisecond)
	}
	// Watch ~40 ping periods: the old behavior re-admitted on every other
	// probe; probation must keep the flapper out for good.
	for i := 0; i < 40; i++ {
		if rt.Up()[2] {
			t.Fatal("flapping shard re-admitted mid-probation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ev := rt.Stats().Evicted; ev != 1 {
		t.Errorf("flapper evicted %d times, want exactly 1", ev)
	}
	for class := 0; class < 6; class++ {
		if _, err := rt.Submit(profileReq(class)); err != nil {
			t.Fatalf("class %d failed with the flapper held out: %v", class, err)
		}
	}
}

// TestRouterHealthProbationReadmitsRecovered: probation must not strand a
// genuinely recovered shard — after PingSuccLimit consecutive good probes
// it rejoins the ring.
func TestRouterHealthProbationReadmitsRecovered(t *testing.T) {
	addrs, svcs := startShards(t, 3)
	rt, err := New(Options{
		Shards:        addrs,
		PingEvery:     5 * time.Millisecond,
		PingTimeout:   200 * time.Millisecond,
		PingFailLimit: 1,
		PingSuccLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	svcs[2].CloseListener()
	svcs[2].Drain()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Up()[2] {
		if time.Now().After(deadline) {
			t.Fatal("dead shard never evicted")
		}
		time.Sleep(time.Millisecond)
	}

	// Revive the backend on the same address; the shard must earn its way
	// back after the probation window.
	svc, err := service.New(service.Options{Workers: 2, Fleet: 2, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Listen(addrs[2]); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		svc.CloseListener()
		svc.Drain()
	})
	for !rt.Up()[2] {
		if time.Now().After(deadline) {
			t.Fatal("recovered shard never re-admitted")
		}
		time.Sleep(time.Millisecond)
	}
}
