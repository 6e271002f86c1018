// Package router is the front-end tier of the federated deployment: it
// speaks the same length-prefixed wire protocol as `splitexec serve`, but
// instead of running jobs it consistent-hash-shards them across N backing
// service instances — QUBO jobs by their embedding-cache key
// (graph.CanonicalHash of the problem graph), profile jobs by workload
// class — so each shard's core.EmbeddingCache stays hot across the whole
// key space. Per-shard bounded queues give backpressure; a backlog past the
// steal threshold diverts jobs to the least-loaded shard; periodic pings
// drop shards from the ring after consecutive failures and re-admit them
// after a probation window of consecutive successes; and a shard loss
// (detected or commanded via RemoveShard/FailShard) re-dispatches queued
// and in-flight jobs to the survivors against a bounded retry budget, with
// hash ownership moving only the dead shard's arc of the ring.
//
// Membership is elastic: AddShard brings a fresh backend into the ring at
// runtime — its embedding cache warmed from the old owners' hot keys before
// ownership flips — and DrainShard retires one gracefully, re-routing its
// queue while in-flight work completes. Each transition bumps a membership
// epoch; every dispatch is tagged with the epoch it routed under, so jobs
// from epoch N complete under N's routing while epoch N+1's rebalance is in
// flight. The admin wire verbs (service.WireAdmin: add/remove/drain/status)
// drive all of this remotely via `splitexec admin`.
//
// The routing decision — hash ownership over the routable shards and the
// steal rule — is workload.RouteTable, the same code the discrete-event
// simulator (internal/des) routes with, which makes the DES the predictive
// twin of the federated system: a cluster scenario's predicted shard
// assignment is the one this router realizes, and internal/ring's Moved
// diff predicts exactly the keys a membership change re-homes.
package router

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/obs"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/ring"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/workload"
)

// Defaults, applied when the corresponding Options field is zero.
const (
	DefaultClientsPerShard = 4
	DefaultQueueDepth      = 256
	DefaultPingEvery       = 250 * time.Millisecond
	DefaultPingTimeout     = 2 * time.Second
	DefaultPingFailLimit   = 3
	DefaultPingSuccLimit   = 2
)

// probationCap bounds the exponential probe backoff a flapping shard earns:
// each eviction doubles its probation window, up to this many ping periods.
const probationCap = 16

// hotKeyCap bounds the router's hot-key memory: the most recent distinct
// QUBO routing keys (and their requests) kept for warming a joining shard's
// embedding cache.
const hotKeyCap = 512

// ErrNoShards reports a dispatch with every shard down or removed.
var ErrNoShards = errors.New("router: no shards available")

// errShardDown re-routes a job whose target died between pick and enqueue.
var errShardDown = errors.New("router: shard down")

// Options configure a router.
type Options struct {
	// Shards are the backing service addresses, index order fixed for the
	// router's lifetime (membership changes flip shards up/down, they
	// never renumber).
	Shards []string
	// ClientsPerShard sizes each shard's dispatch worker pool — and
	// therefore its connection pool (one TCP client per worker).
	ClientsPerShard int
	// QueueDepth bounds each shard's dispatch queue; a full queue blocks
	// the submitting connection (backpressure), exactly like the backing
	// service's own intake.
	QueueDepth int
	// StealThreshold enables cross-shard work stealing: a job whose home
	// shard's queue has reached this length goes to the strictly shortest
	// queue, the lowest shard index among equals; a home that ties the
	// shortest queue keeps the job (workload.RouteTable.Route). Zero
	// disables stealing.
	StealThreshold int
	// MaxRetries is the re-dispatch budget a job may consume when shards
	// fail under it (default workload.DefaultMaxRetries); Backoff is the
	// pause before each re-dispatch (default workload.DefaultBackoff) —
	// the same budget semantics workload.FaultSpec declares.
	MaxRetries int
	Backoff    time.Duration
	// PingEvery is the health-check period (default 250ms; negative
	// disables health checking). PingTimeout bounds each probe, and
	// PingFailLimit consecutive failures mark a shard down. A downed shard
	// then sits out a probation window — one ping period, doubling with
	// each subsequent eviction up to probationCap periods — and re-admits
	// only after PingSuccLimit consecutive successful probes, so a flapping
	// backend (alternating good and bad probes) stays out of the ring
	// instead of oscillating through it.
	PingEvery     time.Duration
	PingTimeout   time.Duration
	PingFailLimit int
	PingSuccLimit int
	// Replicas is the ring's virtual-node count per shard (0 selects
	// ring.DefaultReplicas). Must match the scenario's ClusterSpec for
	// DES-predicted assignments to hold.
	Replicas int
	// Timeout bounds each forwarded round trip (0 = none). It must cover
	// the backing shard's queue wait plus service, not just service.
	Timeout time.Duration
	// Obs, when non-nil, is the telemetry scope the router publishes into:
	// per-shard backlog/dispatch/membership series and steal/eviction/
	// re-dispatch counters into its registry (all sampled at scrape time
	// from the ledgers the router already keeps), and per-job routing spans
	// into its tracer. A nil scope disables telemetry.
	Obs *obs.Scope
}

// Stats is a snapshot of the router's dispatch counters.
type Stats struct {
	// Dispatched counts jobs enqueued per shard (by original index).
	Dispatched []int64 `json:"dispatched"`
	// Stolen counts jobs diverted off their home shard by the steal rule.
	Stolen int64 `json:"stolen"`
	// Redispatched counts shard-loss re-dispatches (in-flight jobs that
	// consumed retry budget).
	Redispatched int64 `json:"redispatched"`
	// Requeued counts queued jobs drained off a dying shard (free
	// re-dispatch — they had not reached the shard yet).
	Requeued int64 `json:"requeued"`
	// Failed counts jobs that exhausted the re-dispatch budget.
	Failed int64 `json:"failed"`
	// Evicted counts shard down-transitions (health-check drops, FailShard,
	// RemoveShard) over the router's lifetime.
	Evicted int64 `json:"evicted,omitempty"`
	// Epoch is the membership epoch: it bumps on every administrative
	// membership change (AddShard, DrainShard, RemoveShard).
	Epoch int64 `json:"epoch,omitempty"`
	// KeysMoved counts tracked hot keys whose ring owner changed across
	// membership transitions; Warmed counts those successfully replayed
	// into a joining shard's embedding cache before its ownership flip.
	KeysMoved int64 `json:"keysMoved,omitempty"`
	Warmed    int64 `json:"warmed,omitempty"`
}

// pjob is one proxied request in flight through the router. The routing
// metadata fields (home, stolen, served) and the span are touched only by
// the job's current carrier — submitting goroutine, shard worker, retry
// goroutine — whose handoffs are channel-ordered, so they need no lock.
type pjob struct {
	req      service.SolveRequest
	key      string
	attempts int
	resp     chan presult

	home   int   // latest hash-home shard (-1 until first pick)
	avoid  int   // shard whose dial or round trip last failed the job (-1 if none)
	epoch  int64 // membership epoch of the latest pick
	stolen bool
	served int // shard that answered (-1 until a shard does)
	span   *obs.SpanBuilder
}

type presult struct {
	resp service.SolveResponse
	err  error
}

func (p *pjob) done(resp service.SolveResponse, err error) {
	p.resp <- presult{resp: resp, err: err}
}

// shard is one backing service endpoint.
type shard struct {
	idx  int
	addr string

	queue chan *pjob

	mu sync.Mutex
	// up is fault state (health probes, FailShard); inRing is membership
	// (AddShard flips it on after warm-up, DrainShard/RemoveShard off). The
	// shard takes traffic only when both hold. Both are written under r.mu
	// and sh.mu together, so either lock suffices to read them.
	up      bool
	inRing  bool
	removed bool
	downCh  chan struct{} // closed when the shard goes down; replaced on revival
	clients map[*service.Client]struct{}

	// Probation state, touched only by the health loop goroutine: fails and
	// succ count consecutive probe outcomes, penalty is the current backoff
	// window (doubling per eviction), and probeAfter gates the next probe of
	// a downed shard.
	fails      int
	succ       int
	penalty    time.Duration
	probeAfter time.Time

	dispatched atomic.Int64
	// inflight is read-held across each round trip; DrainShard takes it
	// for writing to wait out the round trips in progress. A WaitGroup
	// cannot do this: workers Add from zero while DrainShard waits.
	inflight sync.RWMutex
}

// down returns the channel a blocked enqueue watches.
func (sh *shard) down() <-chan struct{} {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.downCh
}

func (sh *shard) isUp() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.up
}

func (sh *shard) isInRing() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.inRing
}

// register tracks a worker's client so FailShard can interrupt its I/O.
func (sh *shard) register(c *service.Client) {
	sh.mu.Lock()
	sh.clients[c] = struct{}{}
	sh.mu.Unlock()
}

func (sh *shard) unregister(c *service.Client) {
	sh.mu.Lock()
	delete(sh.clients, c)
	sh.mu.Unlock()
	c.Close()
}

// Router is the federating front end.
type Router struct {
	opts Options

	// mu serializes membership changes: every shard's up/inRing flip and
	// each publish of routes that follows it. Lock order is r.mu before
	// sh.mu.
	mu sync.Mutex
	// routes is the routing state, written under mu and read without a
	// lock.
	routes atomic.Pointer[routes]

	// Hot-key memory for warm-up: the most recent distinct QUBO routing
	// keys and their requests, FIFO-evicted at hotKeyCap.
	hotMu    sync.Mutex
	hotKeys  map[string]service.SolveRequest
	hotOrder []string

	epMu     sync.Mutex // guards ep and closed
	ep       *qpuserver.Endpoint
	closed   bool
	workerWG sync.WaitGroup
	healthWG sync.WaitGroup
	stop     chan struct{}

	keysMoved    atomic.Int64
	warmed       atomic.Int64
	stolen       atomic.Int64
	redispatched atomic.Int64
	requeued     atomic.Int64
	failedJobs   atomic.Int64
	evicted      atomic.Int64
	seq          atomic.Int64 // dispatch sequence; router span IDs
}

// routes is one immutable routing state: the shard table, the route table
// over its routable members, and the membership epoch they belong to. pick
// reads all three from one atomic load, so a job's target and its epoch
// stamp always come from the same membership.
type routes struct {
	// shards is append-only across states: AddShard copies the backing
	// array, so a published slice stays iterable.
	shards []*shard
	table  *workload.RouteTable
	// epoch bumps on every administrative membership change (add, drain,
	// remove), never on a health eviction.
	epoch int64
}

// publishLocked rebuilds the route table from the shards' up and inRing
// flags and publishes it with shards and epoch. Caller holds r.mu.
func (r *Router) publishLocked(shards []*shard, epoch int64) {
	var slots []int
	for _, sh := range shards {
		if sh.up && sh.inRing {
			slots = append(slots, sh.idx)
		}
	}
	r.routes.Store(&routes{
		shards: shards,
		table:  workload.NewRouteTable(slots, r.opts.Replicas),
		epoch:  epoch,
	})
}

// snapshot returns the current shard table for lock-free iteration: the
// slice is never mutated in place (AddShard appends onto a fresh backing
// array), and shard pointers are stable for the router's lifetime.
func (r *Router) snapshot() []*shard { return r.routes.Load().shards }

// New builds a router over the given shard addresses and starts its
// dispatch workers and health loop. Call Drain to shut it down.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, errors.New("router: no shard addresses")
	}
	r := build(opts)
	for _, sh := range r.snapshot() {
		r.startShard(sh)
	}
	r.initObs()
	if r.opts.PingEvery > 0 {
		r.healthWG.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// build applies the option defaults and provisions the initial shards in
// the ring, without starting workers or the health loop.
func build(opts Options) *Router {
	if opts.ClientsPerShard <= 0 {
		opts.ClientsPerShard = DefaultClientsPerShard
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = workload.DefaultMaxRetries
	}
	if opts.Backoff == 0 {
		opts.Backoff = workload.DefaultBackoff
	}
	if opts.PingEvery == 0 {
		opts.PingEvery = DefaultPingEvery
	}
	if opts.PingTimeout <= 0 {
		opts.PingTimeout = DefaultPingTimeout
	}
	if opts.PingFailLimit <= 0 {
		opts.PingFailLimit = DefaultPingFailLimit
	}
	if opts.PingSuccLimit <= 0 {
		opts.PingSuccLimit = DefaultPingSuccLimit
	}
	r := &Router{
		opts:    opts,
		hotKeys: map[string]service.SolveRequest{},
		stop:    make(chan struct{}),
	}
	shards := make([]*shard, len(opts.Shards))
	for i, addr := range opts.Shards {
		shards[i] = r.newShard(i, addr)
		shards[i].inRing = true
	}
	r.publishLocked(shards, 0)
	return r
}

// newShard builds a shard record outside the ring (AddShard flips inRing
// after warm-up; New flips it at boot).
func (r *Router) newShard(idx int, addr string) *shard {
	return &shard{
		idx:     idx,
		addr:    addr,
		queue:   make(chan *pjob, r.opts.QueueDepth),
		up:      true,
		downCh:  make(chan struct{}),
		clients: map[*service.Client]struct{}{},
	}
}

// startShard launches the shard's dispatch worker pool.
func (r *Router) startShard(sh *shard) {
	for w := 0; w < r.opts.ClientsPerShard; w++ {
		r.workerWG.Add(1)
		go r.worker(sh)
	}
}

// ShardKey derives the routing key of a request: the embedding-cache key
// (canonical graph hash) for QUBO jobs, the workload class key for profile
// jobs. Malformed QUBO payloads report an error — the router refuses them
// without bothering a shard.
func ShardKey(req service.SolveRequest) (string, error) {
	if req.Profile != nil {
		return workload.ClassKey(req.Class), nil
	}
	q, err := service.DecodeQUBO(req)
	if err != nil {
		return "", err
	}
	return graph.CanonicalHash(q.Graph()), nil
}

// maxConns caps the router's concurrent client connections, each of which
// may hold a qpuserver.MaxMessageBytes decode in flight. 128 is the largest
// pool an in-repo caller opens (the storm runner's cluster replay).
const maxConns = 128

// Listen binds addr and serves the wire protocol until Drain. It returns
// once the listener is bound; serving continues in the background. Each
// connection's requests are answered in order, forwarded through the
// dispatch fabric, so queue backpressure propagates to the submitting
// connection exactly as it does on a single node.
func (r *Router) Listen(addr string) (net.Addr, error) {
	r.epMu.Lock()
	defer r.epMu.Unlock()
	if r.ep != nil {
		return nil, errors.New("router: already listening")
	}
	ep, err := qpuserver.Serve(addr, maxConns, r.handle)
	if err != nil {
		return nil, err
	}
	r.ep = ep
	return ep.Addr(), nil
}

// handle routes one request and waits out its round trip.
func (r *Router) handle(req service.SolveRequest) service.SolveResponse {
	if req.Admin != nil {
		return r.handleAdmin(*req.Admin)
	}
	if req.Ping {
		return service.SolveResponse{OK: true} // router liveness
	}
	key, err := ShardKey(req)
	if err != nil {
		return service.SolveResponse{Error: err.Error()}
	}
	r.recordHot(key, req)
	pj := &pjob{req: req, key: key, resp: make(chan presult, 1), home: -1, avoid: -1, served: -1}
	pj.span = r.opts.Obs.Tracer().Start("route", r.seq.Add(1)-1, req.Class)
	if err := r.dispatch(pj); err != nil {
		pj.span.Finish(err.Error())
		return service.SolveResponse{Error: err.Error()}
	}
	res := <-pj.resp
	pj.span.SetRouting(pj.served, pj.home, pj.stolen, pj.attempts)
	if res.err != nil && res.resp.Error == "" {
		pj.span.Finish(res.err.Error())
		return service.SolveResponse{Error: res.err.Error()}
	}
	if res.resp.Error != "" {
		pj.span.Finish(res.resp.Error)
	} else {
		pj.span.Finish("")
	}
	return res.resp
}

// Submit routes one request through the fabric programmatically — the
// in-process equivalent of a wire round trip, used by tests and benchmarks.
func (r *Router) Submit(req service.SolveRequest) (service.SolveResponse, error) {
	resp := r.handle(req)
	if !resp.OK {
		return resp, fmt.Errorf("router: %s", resp.Error)
	}
	return resp, nil
}

// dispatch picks a shard for pj and enqueues it, re-picking if the target
// dies while the enqueue is blocked on a full queue.
func (r *Router) dispatch(pj *pjob) error {
	for {
		sh := r.pick(pj)
		if sh == nil {
			return ErrNoShards
		}
		select {
		case sh.queue <- pj:
			sh.dispatched.Add(1)
			pj.span.Event(obs.StageRoute)
			return nil
		case <-sh.down():
			// The shard died while we were blocked; route again over
			// the survivors.
			continue
		}
	}
}

// pick resolves the dispatch shard for a job's key through the published
// route table, without locking or allocating. A retry is routed away from
// the shard that just failed it. It records the job's routing metadata
// (hash home, steal diversion, epoch) as a side effect, so the span and the
// wire response cite the same decision the counters aggregate; a job moved
// off a home that just failed it was not stolen.
func (r *Router) pick(pj *pjob) *shard {
	rt := r.routes.Load()
	home, target := rt.table.Route(pj.key, r.opts.StealThreshold, pj.avoid, func(i int) int { return len(rt.shards[i].queue) })
	if target < 0 {
		return nil
	}
	pj.home, pj.epoch = home, rt.epoch
	if target != home && home != pj.avoid {
		r.stolen.Add(1)
		pj.stolen = true
		pj.span.Event(obs.StageSteal)
	}
	return rt.shards[target]
}

// worker drains one shard's queue through its own TCP client. A client that
// a FailShard closed is replaced. A dial or round trip that fails sends the
// job back through the re-dispatch budget, routed away from this shard: a
// backend can die before anything marks its shard down, and nothing counts
// these errors against the shard's health; only the health check,
// FailShard and RemoveShard take it out of the ring.
func (r *Router) worker(sh *shard) {
	defer r.workerWG.Done()
	var c *service.Client
	defer func() {
		if c != nil {
			sh.unregister(c)
		}
	}()
	for pj := range sh.queue {
		if pj == nil {
			return
		}
		if !sh.isUp() {
			// The shard died with this job still queued: requeue it on
			// the survivors for free — it never reached the shard.
			r.requeue(pj)
			continue
		}
		if c == nil {
			nc, err := service.DialTimeout(sh.addr, r.opts.Timeout)
			if err != nil {
				pj.avoid = sh.idx
				r.retry(pj, err)
				continue
			}
			if r.opts.Timeout > 0 {
				nc.SetTimeout(r.opts.Timeout)
			}
			c = nc
			sh.register(c)
		}
		sh.inflight.RLock()
		resp, err := c.Do(pj.req)
		sh.inflight.RUnlock()
		if err == nil || resp.Error != "" {
			// Success, or a server-side refusal — either way the shard
			// answered; forward the response with the routing decision
			// stamped on, so clients and drain reports can reconcile
			// against the router's own spans and counters.
			pj.served = sh.idx
			pj.span.Event(obs.StageExecute)
			resp.Routing = &service.WireRouting{
				Shard:        sh.idx,
				Home:         pj.home,
				Stolen:       pj.stolen,
				Redispatches: pj.attempts,
				Epoch:        pj.epoch,
			}
			pj.done(resp, err)
			continue
		}
		// I/O failure: the round trip may have been interrupted by
		// FailShard (client closed) or the shard may be gone. Re-dispatch
		// against the retry budget.
		if errors.Is(err, qpuserver.ErrClosed) {
			c = nil // FailShard retired this client; dial fresh next job
		}
		pj.avoid = sh.idx
		r.retry(pj, err)
	}
}

// retry re-dispatches a job whose attempt failed in flight, against the
// MaxRetries/Backoff budget.
func (r *Router) retry(pj *pjob, cause error) {
	pj.attempts++
	if pj.attempts > r.opts.MaxRetries {
		r.failedJobs.Add(1)
		pj.done(service.SolveResponse{}, fmt.Errorf("router: re-dispatch budget exhausted: %w", cause))
		return
	}
	r.redispatched.Add(1)
	pj.span.Event(obs.StageRetry)
	backoff := r.opts.Backoff
	go func() {
		if backoff > 0 {
			time.Sleep(backoff)
		}
		if err := r.dispatch(pj); err != nil {
			r.failedJobs.Add(1)
			pj.done(service.SolveResponse{}, err)
		}
	}()
}

// requeue re-dispatches a job drained off a dying shard's queue; it never
// reached the shard, so no retry budget is consumed.
func (r *Router) requeue(pj *pjob) {
	r.requeued.Add(1)
	go func() {
		if err := r.dispatch(pj); err != nil {
			r.failedJobs.Add(1)
			pj.done(service.SolveResponse{}, err)
		}
	}()
}

// markDown takes a shard out of the ring: the route table drops it, blocked
// enqueues re-pick, queued jobs drain to the survivors, and in-flight
// clients are closed so blocked round trips fail over immediately. The
// table is published before blocked enqueues wake and before the queue
// drains, so re-picked and requeued jobs cannot land back on the dead shard.
func (r *Router) markDown(sh *shard) {
	r.mu.Lock()
	sh.mu.Lock()
	if !sh.up {
		sh.mu.Unlock()
		r.mu.Unlock()
		return
	}
	sh.up = false
	cur := r.routes.Load()
	r.publishLocked(cur.shards, cur.epoch)
	r.evicted.Add(1)
	close(sh.downCh)
	clients := make([]*service.Client, 0, len(sh.clients))
	for c := range sh.clients {
		clients = append(clients, c)
	}
	clear(sh.clients)
	sh.mu.Unlock()
	r.mu.Unlock()
	// Interrupt in-flight round trips: the workers see qpuserver.ErrClosed and
	// walk the re-dispatch path.
	for _, c := range clients {
		c.Close()
	}
	// Drain whatever is queued; the workers would requeue these one at a
	// time, but draining here frees the queue for blocked producers at
	// once.
	r.requeueQueued(sh)
}

// requeueQueued re-dispatches every job waiting in sh's queue; none reached
// the shard, so no retry budget is consumed.
func (r *Router) requeueQueued(sh *shard) {
	for {
		select {
		case pj := <-sh.queue:
			if pj != nil {
				r.requeue(pj)
			}
		default:
			return
		}
	}
}

// markUp re-admits a revived shard: new down channel, fresh membership.
func (r *Router) markUp(sh *shard) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh.mu.Lock()
	if sh.up || sh.removed {
		sh.mu.Unlock()
		return
	}
	sh.up = true
	sh.downCh = make(chan struct{})
	sh.mu.Unlock()
	cur := r.routes.Load()
	r.publishLocked(cur.shards, cur.epoch)
}

// FailShard forces shard i down, exactly as a failed health check would —
// the deterministic shard-kill hook the storm runner and the chaos tests
// drive. In-flight jobs re-dispatch to the survivors.
func (r *Router) FailShard(i int) error {
	shards := r.snapshot()
	if i < 0 || i >= len(shards) {
		return fmt.Errorf("router: shard %d out of range", i)
	}
	r.markDown(shards[i])
	return nil
}

// RestoreShard re-admits a shard downed by FailShard or the health loop.
func (r *Router) RestoreShard(i int) error {
	shards := r.snapshot()
	if i < 0 || i >= len(shards) {
		return fmt.Errorf("router: shard %d out of range", i)
	}
	r.markUp(shards[i])
	return nil
}

// RemoveShard hard-removes shard i: it leaves the ring immediately
// (ownership rebalances with bounded key movement), queued AND in-flight
// jobs re-dispatch to the survivors against the retry budget, and the
// health loop will not re-admit it. DrainShard is the graceful variant.
func (r *Router) RemoveShard(i int) error {
	shards := r.snapshot()
	if i < 0 || i >= len(shards) {
		return fmt.Errorf("router: shard %d out of range", i)
	}
	sh := shards[i]
	r.mu.Lock()
	sh.mu.Lock()
	wasInRing := sh.inRing
	sh.removed = true
	sh.inRing = false
	sh.mu.Unlock()
	if wasInRing {
		cur := r.routes.Load()
		r.publishLocked(cur.shards, cur.epoch+1)
	}
	r.mu.Unlock()
	r.markDown(sh)
	return nil
}

// AddShard brings a fresh backend into the ring at runtime. The sequence
// keeps the transition invisible to in-flight work: probe the backend,
// provision the shard outside the ring, start its workers, warm its
// embedding cache with the hot keys the ring diff says it will own, and
// only then flip membership and bump the epoch — jobs picked before the
// flip complete under the old epoch's routing. Returns the assigned index
// and the count of hot keys warmed.
func (r *Router) AddShard(addr string) (idx, warmed int, err error) {
	c, err := service.DialTimeout(addr, r.opts.PingTimeout)
	if err != nil {
		return -1, 0, fmt.Errorf("router: add shard: %w", err)
	}
	err = c.Ping()
	c.Close()
	if err != nil {
		return -1, 0, fmt.Errorf("router: add shard %s: backend refused ping: %w", addr, err)
	}
	r.epMu.Lock()
	draining := r.closed
	r.epMu.Unlock()
	if draining {
		return -1, 0, errors.New("router: draining")
	}

	r.mu.Lock()
	cur := r.routes.Load()
	idx = len(cur.shards)
	sh := r.newShard(idx, addr)
	// Full-capacity reslice forces append onto a fresh backing array, so
	// snapshots taken before this point stay safely iterable. The shard is
	// visible to snapshot readers but not yet routable.
	r.publishLocked(append(cur.shards[:idx:idx], sh), cur.epoch)
	old := cur.table.Ring()
	r.mu.Unlock()

	r.registerShardObs(sh)
	r.startShard(sh)
	warmed = r.warm(sh, ring.Moved(old, old.With(workload.ShardName(idx))))

	r.mu.Lock()
	sh.mu.Lock()
	sh.inRing = true
	sh.mu.Unlock()
	cur = r.routes.Load()
	r.publishLocked(cur.shards, cur.epoch+1)
	r.mu.Unlock()
	return idx, warmed, nil
}

// DrainShard gracefully retires shard i: it leaves the ring and the epoch
// bumps (new picks route to the survivors), its queued jobs re-dispatch for
// free, and in-flight round trips complete on the shard — zero aborts, the
// planned counterpart to RemoveShard's crash semantics. The backend itself
// is left running; stop it after DrainShard returns.
func (r *Router) DrainShard(i int) error {
	shards := r.snapshot()
	if i < 0 || i >= len(shards) {
		return fmt.Errorf("router: shard %d out of range", i)
	}
	sh := shards[i]
	r.mu.Lock()
	cur := r.routes.Load()
	inRing := 0
	for _, s := range cur.shards {
		if s.inRing {
			inRing++
		}
	}
	if !sh.inRing {
		r.mu.Unlock()
		return fmt.Errorf("router: shard %d already drained or removed", i)
	}
	if inRing <= 1 {
		r.mu.Unlock()
		return fmt.Errorf("router: cannot drain the last shard")
	}
	sh.mu.Lock()
	sh.inRing = false
	sh.removed = true // the health loop must not resurrect it
	sh.mu.Unlock()
	r.publishLocked(cur.shards, cur.epoch+1)
	r.mu.Unlock()

	// Re-dispatch the queue for free. Workers keep serving anything a
	// pre-flip pick still enqueues — those jobs complete under their old
	// epoch.
	r.requeueQueued(sh)
	sh.inflight.Lock() // wait out the round trips in progress
	sh.inflight.Unlock()
	r.requeueQueued(sh) // sweep stragglers enqueued during the in-flight wait
	return nil
}

// recordHot remembers the latest request per QUBO routing key, the working
// set a joining shard is warmed from. Profile jobs carry no embedding, so
// they are not tracked.
func (r *Router) recordHot(key string, req service.SolveRequest) {
	if req.Profile != nil {
		return
	}
	r.hotMu.Lock()
	defer r.hotMu.Unlock()
	if _, ok := r.hotKeys[key]; !ok {
		if len(r.hotOrder) >= hotKeyCap {
			delete(r.hotKeys, r.hotOrder[0])
			r.hotOrder = r.hotOrder[1:]
		}
		r.hotOrder = append(r.hotOrder, key)
	}
	r.hotKeys[key] = req
}

// warm replays the hot-key requests the membership diff re-homes into the
// joining shard, so its embedding cache is populated before the first
// routed job arrives. Best-effort: a failed warm-up costs only cold-cache
// latency, never correctness.
func (r *Router) warm(sh *shard, moved []ring.Range) int {
	r.hotMu.Lock()
	reqs := make([]service.SolveRequest, 0)
	for _, key := range r.hotOrder {
		if ring.Covers(moved, ring.Hash(key)) {
			reqs = append(reqs, r.hotKeys[key])
		}
	}
	r.hotMu.Unlock()
	r.keysMoved.Add(int64(len(reqs)))
	if len(reqs) == 0 {
		return 0
	}
	c, err := service.DialTimeout(sh.addr, r.opts.PingTimeout)
	if err != nil {
		return 0
	}
	defer c.Close()
	if r.opts.Timeout > 0 {
		c.SetTimeout(r.opts.Timeout)
	}
	warmed := 0
	for _, req := range reqs {
		if _, err := c.Do(req); err == nil {
			warmed++
		}
	}
	r.warmed.Add(int64(warmed))
	return warmed
}

// healthLoop pings every shard each period. PingFailLimit consecutive
// failures evict a member; an evicted shard serves a probation window —
// one ping period, doubled per eviction up to probationCap — before it is
// probed again, and re-admits only after PingSuccLimit consecutive
// successes. A half-failing backend therefore converges to "out" instead of
// flapping through the ring, while a genuinely recovered one returns within
// a few periods.
func (r *Router) healthLoop() {
	defer r.healthWG.Done()
	tick := time.NewTicker(r.opts.PingEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		for _, sh := range r.snapshot() {
			sh.mu.Lock()
			removed, up := sh.removed, sh.up
			sh.mu.Unlock()
			if removed {
				continue
			}
			if !up && time.Now().Before(sh.probeAfter) {
				continue // probation: back off before probing again
			}
			switch {
			case r.probe(sh):
				sh.fails = 0
				if up {
					continue
				}
				sh.succ++
				if sh.succ >= r.opts.PingSuccLimit {
					sh.succ = 0
					r.markUp(sh)
				}
			case up:
				sh.fails++
				if sh.fails >= r.opts.PingFailLimit {
					r.evict(sh)
				}
			default:
				// Still down: a failure during probation restarts the
				// window at the current penalty.
				sh.succ = 0
				sh.probeAfter = time.Now().Add(sh.penalty)
			}
		}
	}
}

// evict marks a shard down and charges its probation penalty, doubling it
// per eviction up to probationCap ping periods.
func (r *Router) evict(sh *shard) {
	if sh.penalty < r.opts.PingEvery {
		sh.penalty = r.opts.PingEvery
	} else if sh.penalty < probationCap*r.opts.PingEvery {
		sh.penalty *= 2
	}
	sh.succ = 0
	sh.probeAfter = time.Now().Add(sh.penalty)
	r.markDown(sh)
}

// probe health-checks one shard with a dedicated short-lived client.
func (r *Router) probe(sh *shard) bool {
	c, err := service.DialTimeout(sh.addr, r.opts.PingTimeout)
	if err != nil {
		return false
	}
	defer c.Close()
	c.SetTimeout(r.opts.PingTimeout)
	return c.Ping() == nil
}

// Stats snapshots the dispatch counters.
func (r *Router) Stats() Stats {
	shards := r.snapshot()
	s := Stats{
		Dispatched:   make([]int64, len(shards)),
		Stolen:       r.stolen.Load(),
		Redispatched: r.redispatched.Load(),
		Requeued:     r.requeued.Load(),
		Failed:       r.failedJobs.Load(),
		Evicted:      r.evicted.Load(),
		Epoch:        r.Epoch(),
		KeysMoved:    r.keysMoved.Load(),
		Warmed:       r.warmed.Load(),
	}
	for i, sh := range shards {
		s.Dispatched[i] = sh.dispatched.Load()
	}
	return s
}

// Epoch is the current membership epoch.
func (r *Router) Epoch() int64 { return r.routes.Load().epoch }

// Up reports per-shard fault state (true = answering probes / not failed).
func (r *Router) Up() []bool {
	shards := r.snapshot()
	out := make([]bool, len(shards))
	for i, sh := range shards {
		out[i] = sh.isUp()
	}
	return out
}

// InRing reports per-shard membership (true = owns ring keys when up).
func (r *Router) InRing() []bool {
	shards := r.snapshot()
	out := make([]bool, len(shards))
	for i, sh := range shards {
		out[i] = sh.isInRing()
	}
	return out
}

// Drain shuts the router down: the listener and its connections close, the
// health loop stops, dispatch queues close, and the workers finish. Safe to
// call more than once.
func (r *Router) Drain() {
	r.epMu.Lock()
	if r.closed {
		r.epMu.Unlock()
		return
	}
	r.closed = true
	ep := r.ep
	r.epMu.Unlock()
	ep.Close()
	close(r.stop)
	r.healthWG.Wait()
	for _, sh := range r.snapshot() {
		close(sh.queue)
	}
	r.workerWG.Wait()
}
