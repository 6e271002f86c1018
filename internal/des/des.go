// Package des is the open-system discrete-event simulator of the workload
// engine: it runs a workload.Scenario against any of the paper's Fig. 1
// architectures in virtual time — no wall-clock sleeping — and reports the
// response-time distributions (queue wait, QPU wait, sojourn) that the
// closed-batch makespan models of internal/arch cannot answer.
//
// The simulated discipline mirrors the live dispatch service exactly: a job
// arrives, waits in a backlog ordered by the scenario's scheduling policy
// (internal/sched: FIFO, priority, shortest-expected-QPU-first or weighted
// fair share) for a free host worker, then the host carries it end to end —
// pre-process, request network, queue for a QPU service token, serialized
// QPU service, response network, post-process — and only then takes the
// next job. Shared-resource systems have one QPU token for all hosts;
// dedicated systems give every host its own, so a held job's QPU is free by
// construction. The QPU token queue itself stays FIFO under every policy,
// matching the live fleet's channel semantics.
//
// Cluster scenarios (workload.ClusterSpec) replicate the deployment across
// N shards routed by the same workload.RouteTable the live router tier
// uses: a job's class key resolves its home shard on the consistent-hash
// ring, a backlog at the steal threshold diverts it to a strictly shorter
// one, and a shard fault aborts the shard's in-flight jobs and
// re-dispatches them to survivors against the scenario's retry budget —
// the simulator remains the predictive twin of the federated system.
// Scheduled membership events (ClusterSpec.Events) make the membership
// elastic: a join brings a fresh shard's hosts and devices into the ring at
// a virtual time, a planned drain removes a shard gracefully — queued work
// re-routes for free, in-flight work completes — and hash ownership tracks
// the evolving member set with bounded key movement (internal/ring's Moved
// diff predicts exactly which keys change owner).
//
// Costs are O(events · log events) on a binary heap keyed by (time, push
// sequence), so identical scenarios replay byte-identical event logs at any
// GOMAXPROCS — millions of simulated arrivals take milliseconds, against
// the hours a live replay would need. Analytic (analytic.go) supplies the
// M/M/c cross-check for the exponential single-class case, validating the
// simulator against queueing theory.
package des

import (
	"container/heap"
	"fmt"
	"io"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/sched"
	"github.com/splitexec/splitexec/internal/stats"
	"github.com/splitexec/splitexec/internal/workload"
)

// Options configure a simulation run.
type Options struct {
	// EventLog, when non-nil, receives one line per simulator event
	// (times in virtual nanoseconds). Identical scenario + seed produce
	// byte-identical logs — the determinism regression anchor.
	EventLog io.Writer
}

// ShardStats is one shard's slice of a cluster result.
type ShardStats struct {
	// Jobs counts completions dispatched to this shard (on their final,
	// successful attempt).
	Jobs    int                   `json:"jobs"`
	Sojourn stats.DurationSummary `json:"sojourn"`
	// ClassSojourn breaks the shard's sojourns down per mix class.
	ClassSojourn []stats.DurationSummary `json:"classSojourn,omitempty"`
}

// Result aggregates one simulated scenario run.
type Result struct {
	Scenario string `json:"scenario,omitempty"`
	// Jobs is the number of completed (= admitted) jobs.
	Jobs int `json:"jobs"`
	// End is the virtual completion time of the last job; Throughput is
	// Jobs over End in jobs/second.
	End        time.Duration `json:"end"`
	Throughput float64       `json:"throughput"`

	// QueueWait is arrival→host pickup, QPUWait the wait for a service
	// token, Sojourn arrival→completion — the open-system latency triple.
	QueueWait stats.DurationSummary `json:"queueWait"`
	QPUWait   stats.DurationSummary `json:"qpuWait"`
	Sojourn   stats.DurationSummary `json:"sojourn"`

	// ClassSojourn breaks the sojourn distribution down per mix class —
	// the view that makes scheduling policies legible: priority shifts
	// latency between classes, fair share apportions it by weight.
	ClassSojourn []stats.DurationSummary `json:"classSojourn,omitempty"`

	// Shards breaks the run down per cluster shard (cluster scenarios
	// only) — the per-shard view next to the aggregate above.
	Shards []ShardStats `json:"shards,omitempty"`

	// HostBusy and QPUBusy are utilization fractions: cumulative busy
	// time over capacity × End.
	HostBusy float64 `json:"hostBusy"`
	QPUBusy  float64 `json:"qpuBusy"`

	// Admitted counts every job the horizon admitted. Under a fault
	// regime Jobs + Failed == Admitted is the conservation invariant the
	// chaos tests pin: a job either completes or fails, never both,
	// never neither.
	Admitted int `json:"admitted,omitempty"`
	// Failed counts jobs lost to the fault regime: a fatal connection
	// drop, or a retry budget exhausted by device deaths or shard loss.
	Failed int `json:"failed,omitempty"`
	// Retries counts service attempts aborted by a device death or a
	// shard loss and re-dispatched after the backoff.
	Retries int `json:"retries,omitempty"`
	// Drops counts submission attempts lost to wire-path connection
	// drops.
	Drops int `json:"drops,omitempty"`
	// DeviceDown is cumulative realized device downtime across the fleet.
	DeviceDown time.Duration `json:"deviceDown,omitempty"`
}

// event kinds, in the order they appear in event logs. The first five are
// the fault-free lifecycle and their log lines are pinned byte-for-byte by
// the determinism regressions; the fault kinds below only ever appear under
// a non-nil Scenario.Faults, and the shard kinds only in cluster runs.
const (
	evArrive    = iota // job enters the system
	evStart            // a host picks the job up
	evGrant            // the job acquires a QPU device
	evRelease          // the job releases its device
	evDone             // the job completes; its host frees
	evDown             // a device dies (fault regime)
	evUp               // a device revives (fault regime)
	evDrop             // a submission attempt is lost on the wire
	evAbort            // a device death aborts the job's in-flight service
	evFail             // the job fails for good (budget exhausted)
	evRoute            // a shard-loss re-dispatch lands after its backoff
	evShardDown        // a whole shard dies (cluster fault)
	evShardUp          // a dead shard rejoins
	evJoin             // a scheduled membership join: a fresh shard enters the ring
	evDrain            // a scheduled planned drain: a shard leaves the ring gracefully
)

var evName = [...]string{"arrive", "start", "qpu+", "qpu-", "done", "down", "up", "drop", "abort", "fail", "route", "sdown", "sup", "join", "drain"}

// event is one heap entry. Ties on time break on push sequence, so the
// replay order — and therefore the event log — is fully deterministic.
// Job events capture the job's attempt counter at push time: a device death
// or shard loss bumps the counter, which invalidates the aborted attempt's
// pending events without having to dig them out of the heap. Device and
// shard events carry (shard, dev) instead of a job.
type event struct {
	at      time.Duration
	seq     int
	kind    int
	job     *job
	attempt int
	shard   int
	dev     int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) empty() bool   { return len(h) == 0 }

// job carries one arrival through the pipeline.
type job struct {
	id      int
	class   int
	profile arch.JobProfile

	arrive   time.Duration
	submitAt time.Duration // successful submission (= arrive unless drops)
	start    time.Duration // host pickup
	reqAt    time.Duration // latest QPU request point
	qpuGrant time.Duration
	done     time.Duration

	client int // closed-loop submitter, else -1
	shard  int // dispatched shard, -1 before routing

	// Fault state: the deterministic drop plan still to realize, the
	// attempt counter that invalidates aborted events, the retry budget
	// consumed, the device currently held, and accumulated QPU wait
	// across attempts.
	drops      int
	fatalDrop  bool
	announced  bool // the arrival has been logged and the next one scheduled
	attempt    int
	retries    int
	dev        int
	qpuWaitAcc time.Duration
}

// simShard is one shard's mutable state: a full copy of the single-node
// deployment — hosts, policy backlog, device pool, outage schedule.
type simShard struct {
	idx int
	// present is ring membership (scheduled joins and planned drains flip
	// it); up is fault state (shard crashes flip it). A shard is routable
	// only when both hold — a joiner's slot exists from t=0 (its devices
	// live and may even realize outages, matching the idle live service)
	// but takes no traffic until its join event.
	present   bool
	up        bool
	freeHosts int
	// backlog holds jobs waiting for a host, ordered by the scenario's
	// scheduling policy (sched.New is deterministic, so event logs stay
	// byte-identical under every policy).
	backlog sched.Queue[*job]
	// hosted lists the jobs the shard's hosts are carrying, in pickup
	// order — the set a shard death aborts deterministically.
	hosted []*job

	// Device pool: shared systems have one device, dedicated systems one
	// per host. Fault-free dedicated runs always find a free device at
	// request time (hosts == devices), so the pool reproduces the old
	// token-bypass event times exactly; under a fault regime devices go
	// down and jobs queue in qpuFIFO until one revives.
	devUp     []bool
	devFree   []int  // up, unheld devices, granted FIFO
	devHolder []*job // device → in-service job
	qpuFIFO   []*job // hosted jobs waiting for any device

	// Device fault-schedule state, inert without Scenario.Faults.
	devGen    []*workload.OutageGen
	devOutage []workload.Outage // current outage per device
	devDownAt []time.Duration
}

// avail reports whether the shard can take traffic: in the ring and not
// crashed.
func (sh *simShard) avail() bool { return sh.present && sh.up }

// sim is the mutable simulation state.
type sim struct {
	sc   *workload.Scenario
	sys  arch.System
	opts Options

	heap eventHeap
	free []*event // recycled heap entries: four events per job add up at 1e6 jobs
	seq  int
	now  time.Duration

	shards  []*simShard
	cluster bool
	steal   int
	// table routes cluster jobs over the available shards; retable
	// rebuilds it whenever a shard's availability changes.
	table *workload.RouteTable
	// pending parks jobs that arrive while every shard is down; they
	// re-route when one rejoins.
	pending []*job

	retryLimit int
	backoff    time.Duration

	// admission
	nextID    int
	live      int // admitted jobs not yet completed or failed
	arrivals  *workload.ArrivalGen
	jobLimit  int           // max admitted jobs (0 = unbounded)
	timeLimit time.Duration // no admissions after this offset (0 = unbounded)

	// accounting
	queueWait    []time.Duration
	qpuWait      []time.Duration
	sojourn      []time.Duration
	classSojourn [][]time.Duration   // indexed by mix class
	shardSojourn [][]time.Duration   // indexed by shard (cluster runs)
	shardClass   [][][]time.Duration // shard → class → sojourns
	hostBusy     time.Duration
	qpuBusy      time.Duration
	end          time.Duration
	failed       int
	retries      int
	drops        int
	deviceDown   time.Duration
}

// Simulate runs the scenario to completion — every admitted job finishes —
// and returns the aggregate result.
func Simulate(sc *workload.Scenario, opts Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sys, err := sc.System.Arch()
	if err != nil {
		return nil, err
	}
	shardCount := sc.ShardCount()
	total := sc.TotalShards()
	s := &sim{
		sc:         sc,
		sys:        sys,
		opts:       opts,
		cluster:    total > 1,
		steal:      sc.StealThreshold(),
		jobLimit:   sc.Horizon.Jobs,
		timeLimit:  sc.Horizon.Duration.D(),
		retryLimit: sc.RetryLimit(),
		backoff:    sc.RetryBackoff(),
	}
	devs := sc.System.QPUs()
	for x := 0; x < total; x++ {
		// Slots beyond the initial membership are scheduled joiners: they
		// exist from t=0 (devices live, outage streams running — the idle
		// provisioned service) but hold no hosts or free devices and take
		// no traffic until their join event.
		present := x < shardCount
		sh := &simShard{
			idx:       x,
			present:   present,
			up:        true,
			backlog:   sched.New[*job](sc.Policy),
			devUp:     make([]bool, devs),
			devHolder: make([]*job, devs),
			devFree:   make([]int, 0, devs),
		}
		if present {
			sh.freeHosts = sys.Hosts
		}
		for d := 0; d < devs; d++ {
			sh.devUp[d] = true
			if present {
				sh.devFree = append(sh.devFree, d)
			}
		}
		if sc.HasDeviceFaults() {
			sh.devGen = make([]*workload.OutageGen, devs)
			sh.devOutage = make([]workload.Outage, devs)
			sh.devDownAt = make([]time.Duration, devs)
			for d := 0; d < devs; d++ {
				// Global device numbering x·devs+d keeps the outage
				// streams identical to the live fleet mapping (and to
				// the historical single-shard streams when x == 0).
				sh.devGen[d] = sc.OutageSource(x*devs + d)
				if o, ok := sh.devGen[d].Next(); ok {
					sh.devOutage[d] = o
					s.pushDev(o.At, evDown, x, d)
				}
			}
		}
		s.shards = append(s.shards, sh)
	}
	if s.cluster {
		s.retable()
	}
	if s.cluster && sc.HasShardFault() {
		sf := sc.Faults.Shard
		s.pushDev(sf.At.D(), evShardDown, sf.Shard, 0)
		if sf.For > 0 {
			s.pushDev(sf.At.D()+sf.For.D(), evShardUp, sf.Shard, 0)
		}
	}
	for _, me := range sc.MemberEvents() {
		kind := evJoin
		if me.Kind == workload.DrainEvent {
			kind = evDrain
		}
		s.pushDev(me.At.D(), kind, me.Shard, 0)
	}
	if err := s.prime(); err != nil {
		return nil, err
	}
	for !s.heap.empty() {
		e := heap.Pop(&s.heap).(*event)
		if e.job == nil && s.live == 0 {
			// Only the fault schedule remains and the workload is
			// drained — no job can ever arrive again, so replaying
			// further outages would just pad the log.
			break
		}
		s.now = e.at
		s.dispatch(e)
		e.job = nil
		s.free = append(s.free, e)
	}
	return s.result(), nil
}

// prime seeds the heap with the first arrivals.
func (s *sim) prime() error {
	if s.sc.Arrival.Kind == workload.ClosedLoop {
		// Every client submits its first job at t=0, in client order.
		for c := 0; c < s.sc.Arrival.Clients; c++ {
			if !s.admitLocked(0, c) {
				break
			}
		}
		return nil
	}
	gen, err := s.sc.Arrivals()
	if err != nil {
		return err
	}
	s.arrivals = gen
	s.scheduleNextArrival()
	return nil
}

// scheduleNextArrival admits the next open-process arrival, if the horizon
// allows one.
func (s *sim) scheduleNextArrival() {
	if s.arrivals == nil {
		return
	}
	if s.jobLimit > 0 && s.nextID >= s.jobLimit {
		return
	}
	off, ok := s.arrivals.Next()
	if !ok {
		return
	}
	if s.jobLimit == 0 && s.timeLimit > 0 && off > s.timeLimit {
		return
	}
	s.admitLocked(off, -1)
}

// admitLocked creates job nextID arriving at off and schedules its arrival
// event. It reports whether the horizon admitted the job.
func (s *sim) admitLocked(off time.Duration, client int) bool {
	if s.jobLimit > 0 && s.nextID >= s.jobLimit {
		return false
	}
	if s.timeLimit > 0 && off > s.timeLimit {
		return false
	}
	sample := s.sc.JobAt(s.nextID)
	j := &job{
		id:      s.nextID,
		class:   sample.Class,
		profile: sample.Profile,
		arrive:  off,
		client:  client,
		shard:   -1,
		dev:     -1,
	}
	plan := s.sc.DropPlanFor(j.id)
	j.drops, j.fatalDrop = plan.Drops, plan.Fatal
	s.nextID++
	s.live++
	s.push(off, evArrive, j)
	return true
}

func (s *sim) push(at time.Duration, kind int, j *job) {
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
		*e = event{at: at, seq: s.seq, kind: kind, job: j, attempt: j.attempt}
	} else {
		e = &event{at: at, seq: s.seq, kind: kind, job: j, attempt: j.attempt}
	}
	heap.Push(&s.heap, e)
}

// pushDev schedules a device- or shard-fault event; they carry no job.
func (s *sim) pushDev(at time.Duration, kind, shard, dev int) {
	s.seq++
	heap.Push(&s.heap, &event{at: at, seq: s.seq, kind: kind, shard: shard, dev: dev})
}

func (s *sim) log(kind int, j *job) {
	if s.opts.EventLog == nil {
		return
	}
	if s.cluster {
		fmt.Fprintf(s.opts.EventLog, "%d %s job=%d class=%d shard=%d\n", s.now, evName[kind], j.id, j.class, j.shard)
		return
	}
	fmt.Fprintf(s.opts.EventLog, "%d %s job=%d class=%d\n", s.now, evName[kind], j.id, j.class)
}

func (s *sim) logDev(kind, shard, dev int) {
	if s.opts.EventLog == nil {
		return
	}
	if s.cluster {
		fmt.Fprintf(s.opts.EventLog, "%d %s shard=%d dev=%d\n", s.now, evName[kind], shard, dev)
		return
	}
	fmt.Fprintf(s.opts.EventLog, "%d %s dev=%d\n", s.now, evName[kind], dev)
}

func (s *sim) logShard(kind, shard int) {
	if s.opts.EventLog != nil {
		fmt.Fprintf(s.opts.EventLog, "%d %s shard=%d\n", s.now, evName[kind], shard)
	}
}

func (s *sim) dispatch(e *event) {
	j := e.job
	switch e.kind {
	case evArrive:
		first := !j.announced
		if first {
			j.announced = true
			s.log(evArrive, j)
		}
		if j.drops > 0 {
			// This submission attempt is lost on the wire; the job
			// retries after the backoff, or fails outright when its
			// whole budget drops.
			j.drops--
			s.log(evDrop, j)
			s.drops++
			if j.fatalDrop && j.drops == 0 {
				s.failJob(j, nil)
			} else {
				s.push(s.now+s.backoff, evArrive, j)
			}
		} else {
			j.submitAt = s.now
			s.routeJob(j)
		}
		// Keep exactly one pending open-process arrival in the heap.
		if first && j.client < 0 {
			s.scheduleNextArrival()
		}

	case evStart:
		// evStart events are synthesized inline by startJob; never queued.

	case evGrant:
		if e.attempt != j.attempt {
			return // stale: a shard loss already aborted this attempt
		}
		// The job reached its QPU-request point (pre-process + request
		// network done, or a retry backoff expired). Devices grant FIFO;
		// fault-free dedicated systems always have one free here.
		j.reqAt = s.now
		s.tryGrant(s.shards[j.shard], j)

	case evRelease:
		if e.attempt != j.attempt {
			return // stale: a device death already aborted this attempt
		}
		s.log(evRelease, j)
		s.qpuBusy += s.now - j.qpuGrant
		sh := s.shards[j.shard]
		dev := j.dev
		sh.devHolder[dev] = nil
		j.dev = -1
		// Completion: response network + post-process.
		s.push(s.now+j.profile.Network+j.profile.PostProcess, evDone, j)
		s.serveOrFree(sh, dev)

	case evDone:
		if e.attempt != j.attempt {
			return // stale: a shard loss aborted the post-processing host
		}
		s.log(evDone, j)
		j.done = s.now
		s.complete(j)
		sh := s.shards[j.shard]
		sh.removeHosted(j)
		if next, ok := sh.backlog.Pop(); ok {
			s.startJob(sh, next)
		} else {
			sh.freeHosts++
		}
		// Closed loop: the client thinks, then submits its next job.
		if j.client >= 0 {
			s.admitLocked(s.now+s.sc.Arrival.Think.D(), j.client)
		}

	case evRoute:
		// A shard-loss re-dispatch: the backoff elapsed, route again.
		s.routeJob(j)

	case evDown:
		sh := s.shards[e.shard]
		dev := e.dev
		sh.devUp[dev] = false
		sh.devDownAt[dev] = s.now
		s.logDev(evDown, e.shard, dev)
		if h := sh.devHolder[dev]; h != nil {
			// The death aborts the in-flight service. The host keeps
			// the job and re-requests a device after the backoff —
			// the lease re-dispatch — unless the retry budget is
			// spent, in which case the job fails and the host frees.
			s.qpuBusy += s.now - h.qpuGrant
			sh.devHolder[dev] = nil
			h.dev = -1
			h.attempt++
			s.log(evAbort, h)
			if h.retries >= s.retryLimit {
				s.failJob(h, sh)
			} else {
				h.retries++
				s.retries++
				s.push(s.now+s.backoff, evGrant, h)
			}
		} else {
			sh.removeFree(dev)
		}
		s.pushDev(s.now+sh.devOutage[dev].For, evUp, e.shard, dev)

	case evUp:
		sh := s.shards[e.shard]
		dev := e.dev
		sh.devUp[dev] = true
		s.deviceDown += s.now - sh.devDownAt[dev]
		s.logDev(evUp, e.shard, dev)
		if sh.avail() {
			s.serveOrFree(sh, dev)
		}
		if o, ok := sh.devGen[dev].Next(); ok {
			sh.devOutage[dev] = o
			s.pushDev(o.At, evDown, e.shard, dev)
		}

	case evShardDown:
		s.shardDown(s.shards[e.shard])

	case evShardUp:
		s.shardUp(s.shards[e.shard])

	case evJoin:
		s.join(s.shards[e.shard])

	case evDrain:
		s.drainShard(s.shards[e.shard])
	}
}

// routeJob resolves a job's shard — hash ownership over the up members,
// diverted by the steal rule when the home backlog is deep — and hands it
// to a free host or the shard backlog. With every shard down the job parks
// until one rejoins.
func (s *sim) routeJob(j *job) {
	sh := s.route(j)
	if sh == nil {
		s.pending = append(s.pending, j)
		return
	}
	j.shard = sh.idx
	if sh.freeHosts > 0 {
		sh.freeHosts--
		s.startJob(sh, j)
	} else {
		sh.backlog.Push(j, s.sc.SchedJob(workload.Job{Class: j.class, Profile: j.profile}))
	}
}

// route picks the dispatch shard for j through the route table, or nil when
// no shard is up.
func (s *sim) route(j *job) *simShard {
	if !s.cluster {
		return s.shards[0]
	}
	_, target := s.table.Route(workload.ClassKey(j.class), s.steal, -1, func(x int) int { return s.shards[x].backlog.Len() })
	if target < 0 {
		return nil
	}
	return s.shards[target]
}

// retable rebuilds the route table over the available shards.
func (s *sim) retable() {
	var slots []int
	for _, sh := range s.shards {
		if sh.avail() {
			slots = append(slots, sh.idx)
		}
	}
	s.table = workload.NewRouteTable(slots, s.sc.Cluster.Replicas)
}

// shardDown kills a shard: every hosted job's attempt is aborted (stale
// events invalidated via the attempt counter) and re-dispatched to the
// survivors against the retry budget, the backlog re-routes for free (those
// jobs never left the router tier), and hash ownership shrinks to the up
// members with bounded key movement.
func (s *sim) shardDown(sh *simShard) {
	if !sh.up {
		return
	}
	sh.up = false
	s.retable()
	s.logShard(evShardDown, sh.idx)
	hosted := sh.hosted
	sh.hosted = nil
	sh.qpuFIFO = nil
	sh.devFree = sh.devFree[:0]
	sh.freeHosts = 0
	for _, h := range hosted {
		s.hostBusy += s.now - h.start
		if h.dev >= 0 {
			s.qpuBusy += s.now - h.qpuGrant
			sh.devHolder[h.dev] = nil
			h.dev = -1
		}
		h.attempt++
		s.log(evAbort, h)
		if h.retries >= s.retryLimit {
			s.failJob(h, nil)
		} else {
			h.retries++
			s.retries++
			s.push(s.now+s.backoff, evRoute, h)
		}
	}
	s.reroute(sh)
}

// shardUp rejoins a dead shard: full host capacity, every up device free,
// and any jobs parked while the whole cluster was down re-route. A shard
// drained while it was dead stays out of the ring — revival restores fault
// state, not membership.
func (s *sim) shardUp(sh *simShard) {
	if sh.up {
		return
	}
	sh.up = true
	s.logShard(evShardUp, sh.idx)
	if sh.present {
		s.online(sh)
	}
}

// join realizes a scheduled membership join: the slot's hosts come online,
// its live devices enter the free pool, and hash ownership expands to the
// new member set — only the ring-diff key ranges change owner, everything
// else stays put.
func (s *sim) join(sh *simShard) {
	if sh.present {
		return
	}
	sh.present = true
	s.logShard(evJoin, sh.idx)
	if sh.up {
		s.online(sh)
	}
}

// online puts a shard that just became available into service: the route
// table gains it, its hosts and live devices free up, and any jobs parked
// while no shard was up re-route.
func (s *sim) online(sh *simShard) {
	s.retable()
	sh.freeHosts = s.sys.Hosts
	sh.devFree = sh.devFree[:0]
	for d, up := range sh.devUp {
		if up {
			sh.devFree = append(sh.devFree, d)
		}
	}
	pending := s.pending
	s.pending = nil
	for _, jb := range pending {
		s.routeJob(jb)
	}
}

// drainShard realizes a planned drain: the shard leaves the ring, its
// queued backlog re-routes to the survivors for free (those jobs never left
// the router tier), and hosted jobs complete in place — the graceful
// counterpart to shardDown's crash semantics.
func (s *sim) drainShard(sh *simShard) {
	if !sh.present {
		return
	}
	sh.present = false
	s.retable()
	s.logShard(evDrain, sh.idx)
	s.reroute(sh)
}

// reroute re-dispatches sh's backlog at once and consumes no retry: those
// jobs never reached a host, so the router tier still holds them.
func (s *sim) reroute(sh *simShard) {
	for jb, ok := sh.backlog.Pop(); ok; jb, ok = sh.backlog.Pop() {
		s.routeJob(jb)
	}
}

// startJob begins host service for j at the current time: the host is held
// until evDone. The QPU request lands after pre-process + request network.
func (s *sim) startJob(sh *simShard, j *job) {
	j.shard = sh.idx
	j.start = s.now
	sh.hosted = append(sh.hosted, j)
	s.log(evStart, j)
	s.push(s.now+j.profile.PreProcess+j.profile.Network, evGrant, j)
}

// tryGrant gives j the next free device, or parks it in the FIFO.
func (s *sim) tryGrant(sh *simShard, j *job) {
	if len(sh.devFree) > 0 {
		dev := sh.devFree[0]
		sh.devFree = sh.devFree[1:]
		s.assign(sh, j, dev)
	} else {
		sh.qpuFIFO = append(sh.qpuFIFO, j)
	}
}

// assign grants device dev to j now and schedules the release.
func (s *sim) assign(sh *simShard, j *job, dev int) {
	j.dev = dev
	sh.devHolder[dev] = j
	j.qpuGrant = s.now
	j.qpuWaitAcc += s.now - j.reqAt
	s.log(evGrant, j)
	s.push(s.now+j.profile.QPUService, evRelease, j)
}

// serveOrFree hands an available device to the FIFO head, or parks it in
// the free list.
func (s *sim) serveOrFree(sh *simShard, dev int) {
	if len(sh.qpuFIFO) > 0 {
		next := sh.qpuFIFO[0]
		sh.qpuFIFO = sh.qpuFIFO[1:]
		s.assign(sh, next, dev)
	} else {
		sh.devFree = append(sh.devFree, dev)
	}
}

// removeFree pulls a dead device out of the free list.
func (sh *simShard) removeFree(dev int) {
	for i, d := range sh.devFree {
		if d == dev {
			sh.devFree = append(sh.devFree[:i], sh.devFree[i+1:]...)
			return
		}
	}
}

// removeHosted drops j from the hosted list, preserving pickup order.
func (sh *simShard) removeHosted(j *job) {
	for i, h := range sh.hosted {
		if h == j {
			sh.hosted = append(sh.hosted[:i], sh.hosted[i+1:]...)
			return
		}
	}
}

// failJob records a job lost to the fault regime. sh, when non-nil, is the
// live shard whose host was carrying the job (retry exhaustion): the host
// frees and takes the next backlog entry. Shard-loss and fatal-drop
// failures pass nil — there is no host to free. Closed-loop clients
// resubmit after their think time either way — a failed request does not
// shrink the client population.
func (s *sim) failJob(j *job, sh *simShard) {
	s.log(evFail, j)
	s.failed++
	s.live--
	if sh != nil {
		sh.removeHosted(j)
		if next, ok := sh.backlog.Pop(); ok {
			s.startJob(sh, next)
		} else {
			sh.freeHosts++
		}
	}
	if j.client >= 0 {
		s.admitLocked(s.now+s.sc.Arrival.Think.D(), j.client)
	}
}

func (s *sim) complete(j *job) {
	s.live--
	s.queueWait = append(s.queueWait, j.start-j.submitAt)
	s.qpuWait = append(s.qpuWait, j.qpuWaitAcc)
	s.sojourn = append(s.sojourn, j.done-j.arrive)
	if s.classSojourn == nil {
		s.classSojourn = make([][]time.Duration, len(s.sc.Mix))
	}
	s.classSojourn[j.class] = append(s.classSojourn[j.class], j.done-j.arrive)
	if s.cluster {
		if s.shardSojourn == nil {
			s.shardSojourn = make([][]time.Duration, len(s.shards))
			s.shardClass = make([][][]time.Duration, len(s.shards))
			for x := range s.shardClass {
				s.shardClass[x] = make([][]time.Duration, len(s.sc.Mix))
			}
		}
		s.shardSojourn[j.shard] = append(s.shardSojourn[j.shard], j.done-j.arrive)
		s.shardClass[j.shard][j.class] = append(s.shardClass[j.shard][j.class], j.done-j.arrive)
	}
	s.hostBusy += j.done - j.start
	if j.done > s.end {
		s.end = j.done
	}
}

func (s *sim) result() *Result {
	r := &Result{
		Scenario:  s.sc.Name,
		Jobs:      len(s.sojourn),
		End:       s.end,
		QueueWait: stats.SummarizeDurations(s.queueWait),
		QPUWait:   stats.SummarizeDurations(s.qpuWait),
		Sojourn:   stats.SummarizeDurations(s.sojourn),
	}
	if len(s.sc.Mix) > 1 {
		r.ClassSojourn = make([]stats.DurationSummary, len(s.sc.Mix))
		for c, ds := range s.classSojourn {
			r.ClassSojourn[c] = stats.SummarizeDurations(ds)
		}
	}
	if s.cluster {
		r.Shards = make([]ShardStats, len(s.shards))
		for x := range s.shards {
			var st ShardStats
			if s.shardSojourn != nil {
				st.Jobs = len(s.shardSojourn[x])
				st.Sojourn = stats.SummarizeDurations(s.shardSojourn[x])
				if len(s.sc.Mix) > 1 {
					st.ClassSojourn = make([]stats.DurationSummary, len(s.sc.Mix))
					for c, ds := range s.shardClass[x] {
						st.ClassSojourn[c] = stats.SummarizeDurations(ds)
					}
				}
			}
			r.Shards[x] = st
		}
	}
	r.Admitted = s.nextID
	r.Failed = s.failed
	r.Retries = s.retries
	r.Drops = s.drops
	r.DeviceDown = s.deviceDown
	if s.end > 0 {
		hosts := float64(s.sys.Hosts * len(s.shards))
		devs := float64(s.sc.System.QPUs() * len(s.shards))
		r.Throughput = float64(r.Jobs) / s.end.Seconds()
		r.HostBusy = float64(s.hostBusy) / (float64(s.end) * hosts)
		r.QPUBusy = float64(s.qpuBusy) / (float64(s.end) * devs)
	}
	return r
}

// String renders the result in the fixed format the determinism regression
// byte-compares; the fault line appears only when the run realized faults,
// so fault-free renderings are byte-identical to the historical format.
func (r *Result) String() string {
	out := fmt.Sprintf("scenario=%q jobs=%d end=%v throughput=%.4f\n  queueWait %v\n  qpuWait   %v\n  sojourn   %v\n  hostBusy=%.4f qpuBusy=%.4f",
		r.Scenario, r.Jobs, r.End, r.Throughput, r.QueueWait, r.QPUWait, r.Sojourn, r.HostBusy, r.QPUBusy)
	if r.Failed > 0 || r.Retries > 0 || r.Drops > 0 || r.DeviceDown > 0 {
		out += fmt.Sprintf("\n  failed=%d retries=%d drops=%d deviceDown=%v", r.Failed, r.Retries, r.Drops, r.DeviceDown)
	}
	return out
}
