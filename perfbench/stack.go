package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/obs"
	"github.com/splitexec/splitexec/internal/router"
	"github.com/splitexec/splitexec/internal/service"
)

// baseConfig is the solver template of `splitexec serve`'s defaults:
// C(8,8,4), 256 sweeps per read and 20 embedding tries.
func baseConfig() core.Config {
	node := machine.SimpleNode()
	node.QPU.Topology = graph.Vesuvius()
	return core.Config{
		Node:    node,
		Sampler: anneal.SamplerOptions{Sweeps: 256},
		Embed:   embed.Options{MaxTries: 20},
	}
}

// stack is one deployment, brought up in-process over loopback TCP.
type stack struct {
	svcs   []*service.Service
	caches []*core.EmbeddingCache
	rt     *router.Router
	addr   string // the front end the clients dial
}

// bringUp starts the workload's deployment: one service whose two host
// workers share one QPU (Fig. 1b), or a router, with `splitexec route`
// defaults, over two shards of one worker and one QPU each. Every service
// has its own embedding cache. fleet, when non-nil, supplies each service's
// devices.
func bringUp(w spec, obsOn bool, fleet func() []core.QPUDevice) (*stack, error) {
	st := &stack{}
	workers, shards := 2, 1
	if w.routed {
		workers, shards = 1, 2
	}
	var addrs []string
	for i := 0; i < shards; i++ {
		opts := service.Options{Workers: workers, Fleet: 1, Base: baseConfig(), Seed: 1, Cache: core.NewEmbeddingCache()}
		if fleet != nil {
			opts.Devices = fleet()
		}
		if obsOn {
			opts.Obs = obs.NewScope()
		}
		svc, err := service.New(opts)
		if err != nil {
			st.shutdown()
			return nil, err
		}
		st.svcs = append(st.svcs, svc)
		st.caches = append(st.caches, opts.Cache)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			st.shutdown()
			return nil, err
		}
		addrs = append(addrs, addr.String())
	}
	if !w.routed {
		st.addr = addrs[0]
		return st, nil
	}
	ropts := router.Options{Shards: addrs}
	if obsOn {
		ropts.Obs = obs.NewScope()
	}
	rt, err := router.New(ropts)
	if err != nil {
		st.shutdown()
		return nil, err
	}
	st.rt = rt
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		st.shutdown()
		return nil, err
	}
	st.addr = addr.String()
	return st, nil
}

// shutdown drains the router, then each service, and returns the
// services' drain reports.
func (st *stack) shutdown() []service.Report {
	if st.rt != nil {
		st.rt.Drain()
	}
	reps := make([]service.Report, len(st.svcs))
	for i, svc := range st.svcs {
		reps[i] = svc.Drain()
	}
	return reps
}

// counters is a snapshot of the stack's cache and dispatch ledgers.
type counters struct {
	hits, misses int
	dispatched   []int64 // per shard; nil without a router
	redispatched int64
}

func (st *stack) counters() counters {
	var c counters
	for _, cache := range st.caches {
		h, m := cache.Stats()
		c.hits += h
		c.misses += m
	}
	if st.rt != nil {
		s := st.rt.Stats()
		c.dispatched, c.redispatched = s.Dispatched, s.Redispatched
	}
	return c
}

func (c counters) sub(b counters) counters {
	d := counters{hits: c.hits - b.hits, misses: c.misses - b.misses, redispatched: c.redispatched - b.redispatched}
	for i := range c.dispatched {
		d.dispatched = append(d.dispatched, c.dispatched[i]-b.dispatched[i])
	}
	return d
}

// checkLedgers verifies conservation after drain: every job a service
// admitted completed or failed exactly once, the services together
// admitted exactly the jobs sent, and the router dispatched each of them
// once.
func checkLedgers(st *stack, reps []service.Report, sent int, t *tally) {
	admitted := 0
	for i, rep := range reps {
		if rep.Jobs+rep.Failed != rep.Submitted {
			t.problem("service %d ledger: %d jobs + %d failed != %d submitted", i, rep.Jobs, rep.Failed, rep.Submitted)
		}
		admitted += rep.Submitted
	}
	if admitted != sent {
		t.problem("services admitted %d jobs, %d were sent", admitted, sent)
	}
	if st.rt == nil {
		return
	}
	rs := st.rt.Stats()
	var dispatched int64
	for _, d := range rs.Dispatched {
		dispatched += d
	}
	if dispatched != int64(sent) || rs.Failed != 0 {
		t.problem("router dispatched %d jobs with %d failed, %d were sent", dispatched, rs.Failed, sent)
	}
}

// checkCache fails the run unless the measured phase hit the embedding
// cache on every solve-hot job and missed on every solve-cold job.
func checkCache(in inputs, d counters, t *tally) {
	hits, misses := 0, len(in.jobs)
	if len(in.prewarm) > 0 {
		hits, misses = misses, hits
	}
	if d.hits != hits || d.misses != misses {
		t.problem("measured phase made %d cache hits and %d misses, want %d and %d", d.hits, d.misses, hits, misses)
	}
}

// call is one round trip as its client saw it.
type call struct {
	start, end time.Time
	resp       service.SolveResponse
	err        error
}

// closedLoop sends the jobs over the clients, each client sending its next
// job as soon as its previous reply arrives. It returns the calls in job
// order and the wall time from the first send to the last reply.
func closedLoop(clients []*service.Client, jobs []problem) ([]call, time.Duration) {
	n := len(jobs)
	calls := make([]call, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *service.Client) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				t0 := time.Now()
				resp, err := c.Do(jobs[i].request())
				calls[i] = call{start: t0, end: time.Now(), resp: resp, err: err}
			}
		}(c)
	}
	wg.Wait()
	return calls, time.Since(start)
}

// checkAnswers verifies every answer, counting attempts and failures in t,
// and returns the share of answers at the exact ground energy.
func checkAnswers(jobs []problem, calls []call, t *tally) float64 {
	grounded := 0
	for i, c := range calls {
		t.attempted++
		err := c.err
		if err == nil {
			var ground bool
			ground, err = checkSolve(jobs[i], c.resp)
			if ground {
				grounded++
			}
		}
		if err != nil {
			t.failed++
			if t.failed <= maxReported {
				t.problem("job %d: %v", i, err)
			}
		}
	}
	if len(calls) == 0 {
		return 0
	}
	return float64(grounded) / float64(len(calls))
}

// usage is the process's CPU time, heap allocation and GC count.
type usage struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), alloc: ms.TotalAlloc, gcs: ms.NumGC}
}

func (u usage) sub(b usage) usage {
	return usage{cpu: u.cpu - b.cpu, alloc: u.alloc - b.alloc, gcs: u.gcs - b.gcs}
}

// round is one bring-up → pre-warm → warm-up → measured batch → drain
// cycle.
type round struct {
	setup, wall time.Duration
	start       time.Time    // just before the first measured send
	calls       []call       // the measured jobs, in job order
	groundFrac  float64      // measured solve answers at the exact ground energy
	delta       counters     // cache and router ledgers over the measured phase
	use         usage        // process usage over the measured phase
	devices     []deviceSpan // traced rounds: device calls during the measured phase
}

// runRound runs one round. rec, when non-nil, times every QPU device call.
func runRound(w spec, in inputs, obsOn bool, rec *recorder, t *tally) round {
	var fleet func() []core.QPUDevice
	if rec != nil {
		fleet = rec.fleet
	}
	runtime.GC() // every round starts from a collected heap
	begin := time.Now()
	st, err := bringUp(w, obsOn, fleet)
	if err != nil {
		fatalf("bring-up: %v", err)
	}
	clients := make([]*service.Client, connections)
	for i := range clients {
		if clients[i], err = service.Dial(st.addr); err != nil {
			fatalf("dial: %v", err)
		}
	}
	sent := 0
	for _, jobs := range [][]problem{in.prewarm, in.warmup} {
		calls, _ := closedLoop(clients, jobs)
		checkAnswers(jobs, calls, t)
		sent += len(jobs)
	}
	r := round{setup: time.Since(begin)}
	c0, u0 := st.counters(), readUsage()
	r.start = time.Now()
	r.calls, r.wall = closedLoop(clients, in.jobs)
	r.use = readUsage().sub(u0)
	r.delta = st.counters().sub(c0)
	if rec != nil {
		r.devices = rec.since(r.start)
	}
	sent += len(in.jobs)
	r.groundFrac = checkAnswers(in.jobs, r.calls, t)
	for _, c := range clients {
		c.Close()
	}
	checkLedgers(st, st.shutdown(), sent, t)
	checkCache(in, r.delta, t)
	return r
}
