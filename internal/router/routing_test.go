package router

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/des"
	"github.com/splitexec/splitexec/internal/workload"
)

// idleRouter builds a router over n unreachable addresses without starting
// its workers or health loop, so pick runs against queues that only the
// test fills.
func idleRouter(n, steal int) *Router {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("shard-%d.invalid:1", i)
	}
	return build(Options{Shards: addrs, StealThreshold: steal})
}

// TestPickAllocFree pins the dispatch hot path: pick reads the published
// route table without a lock and allocates nothing, whether the job stays
// home or steals.
func TestPickAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rt := idleRouter(3, 1)
	pj := &pjob{key: workload.ClassKey(0), home: -1, avoid: -1, served: -1}
	home := rt.pick(pj).idx
	check := func(what string) {
		if n := testing.AllocsPerRun(200, func() { rt.pick(pj) }); n != 0 {
			t.Errorf("%s: pick allocates %.1f objects per call, want 0", what, n)
		}
	}
	check("home")
	rt.snapshot()[home].queue <- &pjob{} // home backlog at the threshold
	if rt.pick(pj).idx == home {
		t.Fatal("a home at the steal threshold kept the job")
	}
	check("steal")
}

// BenchmarkPick measures one routing decision — ring owner plus the steal
// check — at several fabric widths.
func BenchmarkPick(b *testing.B) {
	for _, n := range []int{2, 3, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			rt := idleRouter(n, 4)
			pj := &pjob{key: workload.ClassKey(0), home: -1, avoid: -1, served: -1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rt.pick(pj) == nil {
					b.Fatal("no shard")
				}
			}
		})
	}
}

// TestRouterFailRestoreHammer races concurrent submitters against a
// goroutine that cycles the class keys' home shard down and up. Every
// submission must be answered, and the ledgers must conserve: the failures
// clients saw are the ones the router counted, and every enqueue is a first
// dispatch, a re-dispatch or a requeue.
func TestRouterFailRestoreHammer(t *testing.T) {
	addrs, _ := startShards(t, 3)
	rt, err := New(Options{
		Shards:          addrs,
		ClientsPerShard: 1, // one lane per shard, so backlogs form and steal
		QueueDepth:      8,
		StealThreshold:  2,
		MaxRetries:      8,
		Backoff:         100 * time.Microsecond,
		PingEvery:       -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	victim := clusterRing(3).Owner(workload.ClassKey(0))
	stop := make(chan struct{})
	cycled := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				cycled <- n
				return
			default:
			}
			rt.FailShard(victim)
			time.Sleep(200 * time.Microsecond)
			rt.RestoreShard(victim)
			time.Sleep(200 * time.Microsecond)
			n++
		}
	}()

	const submitters, each = 8, 20
	var completed, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := rt.Submit(profileReq((w + i) % 6)); err != nil {
					failed.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}(w)
	}
	answered := make(chan struct{})
	go func() {
		wg.Wait()
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(60 * time.Second):
		t.Fatalf("submitters hung: %d of %d answered", completed.Load()+failed.Load(), submitters*each)
	}
	close(stop)
	cycles := <-cycled

	st := rt.Stats()
	t.Logf("%d fail/restore cycles: %d re-dispatched, %d requeued, %d stolen, %d failed",
		cycles, st.Redispatched, st.Requeued, st.Stolen, st.Failed)
	if cycles == 0 {
		t.Fatal("the membership cycler never completed a cycle")
	}
	if st.Evicted != int64(cycles) {
		t.Errorf("%d fail/restore cycles but %d evictions", cycles, st.Evicted)
	}
	if st.Failed != failed.Load() {
		t.Errorf("router counted %d failures, clients saw %d", st.Failed, failed.Load())
	}
	// A re-dispatching goroutine counts its enqueue just after the send, so
	// the last counts can land after the job itself was answered.
	want := submitters*each + st.Redispatched + st.Requeued
	var dispatched int64
	for settle := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		dispatched = 0
		for _, n := range rt.Stats().Dispatched {
			dispatched += n
		}
		if dispatched == want || time.Now().After(settle) {
			break
		}
	}
	if dispatched != want {
		t.Errorf("dispatch ledger %d != %d submitted + %d re-dispatched + %d requeued",
			dispatched, submitters*each, st.Redispatched, st.Requeued)
	}
	if !rt.Up()[victim] {
		t.Error("cycled shard left down after its final restore")
	}
	if pj := (&pjob{key: workload.ClassKey(0), avoid: -1}); rt.pick(pj) == nil || pj.home != victim {
		t.Errorf("after the final restore class 0 homes on %d, want %d", pj.home, victim)
	}
}

// TestRouterMatchesDESMembership is the differential check that the DES
// and the router make one routing decision. The membership trace of one
// ClusterSpec — a shard crash and restore from faults.shard, then a join
// and a drain from cluster.events — is applied to both: to a router
// through FailShard, RestoreShard, AddShard and DrainShard, and to the DES
// as scheduled events. In every membership state each class key must reach
// the same home shard: the router's pick, and the shard of the DES's start
// events in that state.
//
// Class keys differ only in their trailing digits, so they hash onto one
// short arc of the ring and share an owner. The trace is chosen so every
// step moves that arc: at 32 replicas shard 0 owns it among {0, 1}, and
// the joiner, shard 2, takes it until it drains.
func TestRouterMatchesDESMembership(t *testing.T) {
	const classes = 12
	const window = 40 * time.Millisecond
	profile := workload.Profile{
		PreProcess:  workload.Duration(20 * time.Microsecond),
		QPUService:  workload.Duration(20 * time.Microsecond),
		PostProcess: workload.Duration(10 * time.Microsecond),
	}
	mix := make([]workload.JobClass, classes)
	for c := range mix {
		mix[c] = workload.JobClass{Name: fmt.Sprintf("c%d", c), Weight: 1, Profile: profile}
	}
	// Hosts far outnumber concurrent jobs, so no backlog forms: a job
	// starts at the instant it is routed, under that instant's membership.
	sc := &workload.Scenario{
		Name:    "membership-differential",
		Seed:    5,
		Arrival: workload.Arrival{Kind: workload.Poisson, Rate: 20000},
		Mix:     mix,
		System:  workload.SystemSpec{Kind: "dedicated", Hosts: 16},
		Horizon: workload.Horizon{Duration: workload.Duration(5 * window)},
		Cluster: &workload.ClusterSpec{
			Shards:   2,
			Replicas: 32,
			Events: []workload.MemberEvent{
				{Kind: workload.JoinEvent, Shard: 2, At: workload.Duration(3 * window)},
				{Kind: workload.DrainEvent, Shard: 2, At: workload.Duration(4 * window)},
			},
		},
		Faults: &workload.FaultSpec{Shard: &workload.ShardFault{
			Shard: 0, At: workload.Duration(window), For: workload.Duration(window),
		}},
	}

	addrs, _ := startShards(t, sc.TotalShards())
	rt, err := New(Options{
		Shards:         addrs[:sc.ShardCount()],
		Replicas:       sc.Cluster.Replicas,
		StealThreshold: sc.StealThreshold(),
		PingEvery:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Drain()

	// The router side of the trace, in time order.
	type change struct {
		at    time.Duration
		name  string
		apply func() error
	}
	var trace []change
	sf := sc.Faults.Shard
	trace = append(trace,
		change{sf.At.D(), fmt.Sprintf("fail %d", sf.Shard), func() error { return rt.FailShard(sf.Shard) }},
		change{(sf.At + sf.For).D(), fmt.Sprintf("restore %d", sf.Shard), func() error { return rt.RestoreShard(sf.Shard) }})
	for _, e := range sc.Cluster.Events {
		if e.Kind == workload.JoinEvent {
			trace = append(trace, change{e.At.D(), fmt.Sprintf("join %d", e.Shard), func() error {
				idx, _, err := rt.AddShard(addrs[e.Shard])
				if err == nil && idx != e.Shard {
					err = fmt.Errorf("joined as shard %d, scenario names %d", idx, e.Shard)
				}
				return err
			}})
		} else {
			trace = append(trace, change{e.At.D(), fmt.Sprintf("drain %d", e.Shard), func() error { return rt.DrainShard(e.Shard) }})
		}
	}
	sort.Slice(trace, func(a, b int) bool { return trace[a].at < trace[b].at })

	homes := func() []int {
		out := make([]int, classes)
		for c := range out {
			pj := &pjob{key: workload.ClassKey(c), home: -1, avoid: -1, served: -1}
			sh := rt.pick(pj)
			if sh == nil || sh.idx != pj.home {
				t.Fatalf("class %d: no shard or a steal with stealing disabled", c)
			}
			out[c] = pj.home
		}
		return out
	}
	states := [][]int{homes()}
	for _, ch := range trace {
		if err := ch.apply(); err != nil {
			t.Fatalf("%s: %v", ch.name, err)
		}
		states = append(states, homes())
	}
	for k := 1; k < len(states); k++ {
		if fmt.Sprint(states[k]) == fmt.Sprint(states[k-1]) {
			t.Errorf("%s moved no class key: the trace does not exercise routing", trace[k-1].name)
		}
	}

	var log bytes.Buffer
	if _, err := des.Simulate(sc, des.Options{EventLog: &log}); err != nil {
		t.Fatal(err)
	}
	seen := make([][]int, len(states)) // state → class → start events
	for k := range seen {
		seen[k] = make([]int, classes)
	}
	lines := bufio.NewScanner(&log)
	for lines.Scan() {
		var at time.Duration
		var id, class, shard int
		if n, _ := fmt.Sscanf(lines.Text(), "%d start job=%d class=%d shard=%d", &at, &id, &class, &shard); n != 4 {
			continue
		}
		k := sort.Search(len(trace), func(i int) bool { return trace[i].at > at })
		if want := states[k][class]; shard != want {
			t.Fatalf("state %d: DES started job %d (class %d) on shard %d at %v, router routes the class to %d",
				k, id, class, shard, at, want)
		}
		seen[k][class]++
	}
	for k := range seen {
		for c, n := range seen[k] {
			if n == 0 {
				t.Errorf("state %d: the DES started no class %d job, so the state went unchecked", k, c)
			}
		}
	}
}
