// Package loadgen replays a workload.Scenario against the *live* dispatch
// service — the measurement half of the open-system workload engine. Where
// internal/des predicts response-time distributions in virtual time, the
// load generator realizes the same scenario in wall-clock time: the same
// per-job classes and profiles (workload.Scenario.JobAt), the same arrival
// offsets, submitted to a running internal/service either in process or
// over TCP via service.Dial. Tests pin the measured sojourn distribution
// inside a tolerance band of the DES prediction — the open-system analog of
// the closed-batch makespan regression.
package loadgen

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/obs"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/stats"
	"github.com/splitexec/splitexec/internal/workload"
)

// Options select the target service and transport.
type Options struct {
	// Service, when non-nil, submits jobs in process. Size its QueueDepth
	// for the offered load: a full queue blocks Submit and distorts the
	// arrival process.
	Service *service.Service
	// Addr, when non-empty, dials the service's TCP front-end instead.
	// Exactly one of Service and Addr must be set.
	Addr string
	// Conns is the TCP connection pool size (Addr mode); a job waits for
	// a free connection before submitting, so the pool should exceed the
	// expected number of jobs in flight. Values <= 0 select 16.
	Conns int
	// Timeout bounds each TCP round trip (0 = none). It must cover queue
	// wait plus service, not just service.
	Timeout time.Duration
	// Fleet, when non-nil, is the fault-injection handle for scenarios
	// with device faults: the load generator replays the scenario's
	// deterministic outage schedules against this service's fleet in wall
	// time. In-process runs default it to Service; Addr runs that inject
	// device faults must set it to the serving side's *service.Service
	// (the storm runner owns both halves and does exactly that).
	Fleet *service.Service
	// Fleets, when non-empty, are the per-shard fault handles of a
	// federated deployment (Addr pointing at a router front end). Device
	// outage streams use the cluster's global device numbering — shard
	// index × per-shard fleet size + local device — the same streams the
	// DES consumes for cluster scenarios, so both sides kill the same
	// (shard, device) pairs in the same order. Takes precedence over
	// Fleet.
	Fleets []*service.Service
	// Obs, when non-nil, is the telemetry scope the generator publishes
	// into: offered/completed/failed/drop counters and the client-observed
	// sojourn histogram into its registry, and completed sojourns into its
	// drift alarm — the client-side feed of the DES-drift loop, useful when
	// the serving side runs in another process.
	Obs *obs.Scope
}

// measure is one submission's server-reported measurements: the per-job
// waits, the server-side retry count, and — behind a router front end — the
// routing metadata the router stamped on the response.
type measure struct {
	queueWait time.Duration
	qpuWait   time.Duration
	retries   int
	routing   *service.WireRouting
}

// jobRecord is one measured job.
type jobRecord struct {
	queueWait    time.Duration
	qpuWait      time.Duration
	sojourn      time.Duration
	retries      int
	drops        int
	stolen       bool
	redispatches int
	err          error
}

// Result aggregates one load-generation run in the same shape as the DES
// Result, so measured-vs-simulated comparison is field-for-field.
type Result struct {
	Scenario string `json:"scenario,omitempty"`
	Jobs     int    `json:"jobs"`
	Failed   int    `json:"failed"`

	// Elapsed is first-arrival to last-completion wall time; Throughput
	// is completed jobs over Elapsed.
	Elapsed    time.Duration `json:"elapsed"`
	Throughput float64       `json:"throughput"`

	// QueueWait and QPUWait are the service's own per-job measurements;
	// Sojourn is client-observed: scheduled arrival to completion.
	QueueWait stats.DurationSummary `json:"queueWait"`
	QPUWait   stats.DurationSummary `json:"qpuWait"`
	Sojourn   stats.DurationSummary `json:"sojourn"`

	// Retries counts server-side lease-revocation retries, Drops the
	// wire-path connection drops the generator realized — both zero
	// outside a fault regime, both mirroring the DES Result fields.
	Retries int `json:"retries,omitempty"`
	Drops   int `json:"drops,omitempty"`

	// Router-tier routing metadata, aggregated from the WireRouting each
	// routed response carries: jobs the steal rule diverted off their home
	// shard, and shard-loss re-dispatches consumed. Both zero against a
	// direct (un-routed) service, whose responses carry no routing. These
	// reconcile with the router's own Stats and /jobz spans — the post-run
	// report and the live endpoint cite the same per-job facts.
	Stolen       int `json:"stolen,omitempty"`
	Redispatched int `json:"redispatched,omitempty"`
}

// submitter abstracts the two transports behind one blocking call. The
// class attributes let the service's scheduler realize the scenario's
// policy on live jobs exactly as the DES does in virtual time.
type submitter func(p arch.JobProfile, class service.JobClass) (measure, error)

// classOf extracts the scheduling attributes of a sampled job from the
// scenario mix.
func classOf(sc *workload.Scenario, job workload.Job) service.JobClass {
	c := sc.Mix[job.Class]
	return service.JobClass{Class: job.Class, Priority: c.Priority, Weight: c.Weight}
}

// Run replays the scenario against the configured service and blocks until
// every admitted job has completed.
func Run(sc *workload.Scenario, opts Options) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if (opts.Service == nil) == (opts.Addr == "") {
		return nil, fmt.Errorf("loadgen: exactly one of Service and Addr must be set")
	}

	submit := opts.inProcess
	if opts.Addr != "" {
		pool, closePool, err := dialPool(opts)
		if err != nil {
			return nil, err
		}
		defer closePool()
		submit = pool
	}

	// Device faults: replay the scenario's deterministic outage schedules
	// against the fleet in wall time. The schedules are the same DeriveSeed
	// streams the DES consumes, so both sides kill the same devices in the
	// same order.
	fleet := opts.Fleet
	if fleet == nil {
		fleet = opts.Service
	}
	if sc.HasDeviceFaults() {
		if len(opts.Fleets) > 0 {
			for x, f := range opts.Fleets {
				stop := f.StartOutages(outagePlansAt(sc, f.FleetSize(), x*f.FleetSize()))
				defer stop()
			}
		} else if fleet != nil {
			stop := fleet.StartOutages(outagePlans(sc, fleet.FleetSize()))
			defer stop()
		}
	}
	backoff := sc.RetryBackoff()

	// Telemetry handles, resolved once; all nil (and free) without a scope.
	reg := opts.Obs.Registry()
	lgSubmitted := reg.Counter("splitexec_loadgen_submitted_total")
	lgCompleted := reg.Counter("splitexec_loadgen_completed_total")
	lgFailed := reg.Counter("splitexec_loadgen_failed_total")
	lgDrops := reg.Counter("splitexec_loadgen_drops_total")
	lgSojourn := reg.Histogram("splitexec_loadgen_sojourn_seconds", nil)
	// The drift alarm takes the client-observed feed only against a remote
	// target: in-process the service shares the scope and feeds the alarm
	// itself, and a second feed would double-count every sojourn.
	drift := opts.Obs.DriftAlarm()
	if opts.Addr == "" {
		drift = nil
	}

	var (
		records []jobRecord
		mu      sync.Mutex
		wg      sync.WaitGroup
		start   = time.Now()
	)
	record := func(r jobRecord) {
		mu.Lock()
		records = append(records, r)
		mu.Unlock()
	}
	// launch runs one job end to end: it charges lateness between the
	// scheduled arrival and the actual submission to the sojourn, exactly
	// as the DES charges queueing from the arrival instant. The job's
	// deterministic drop plan (workload.DropPlanFor) is realized first:
	// each dropped attempt severs a TCP connection mid-request (Addr mode)
	// and burns the retry backoff; a fatal plan fails the job without it
	// ever reaching the service — mirroring the DES drop/fail events.
	launch := func(idx int, plannedAt time.Time) {
		defer wg.Done()
		plan := sc.DropPlanFor(idx)
		lgDrops.Add(int64(plan.Drops))
		for d := 0; d < plan.Drops; d++ {
			if opts.Addr != "" {
				dropConnection(opts.Addr, opts.Timeout)
			}
			if plan.Fatal && d == plan.Drops-1 {
				lgFailed.Inc()
				record(jobRecord{drops: plan.Drops, err: errDropped})
				return
			}
			sleepUntil(time.Now().Add(backoff))
		}
		job := sc.JobAt(idx)
		lgSubmitted.Inc()
		m, err := submit(job.Profile, classOf(sc, job))
		if err != nil {
			lgFailed.Inc()
			record(jobRecord{drops: plan.Drops, err: err})
			return
		}
		sojourn := time.Since(plannedAt)
		lgCompleted.Inc()
		lgSojourn.Observe(sojourn)
		drift.Observe(job.Class, sojourn)
		rec := jobRecord{queueWait: m.queueWait, qpuWait: m.qpuWait, sojourn: sojourn,
			retries: m.retries, drops: plan.Drops}
		if m.routing != nil {
			rec.stolen = m.routing.Stolen
			rec.redispatches = m.routing.Redispatches
		}
		record(rec)
	}

	if sc.Arrival.Kind == workload.ClosedLoop {
		runClosedLoop(sc, start, &wg, launch)
	} else {
		gen, err := sc.Arrivals()
		if err != nil {
			return nil, err
		}
		limit := sc.Horizon.Jobs
		timeLimit := sc.Horizon.Duration.D()
		for i := 0; limit == 0 || i < limit; i++ {
			off, ok := gen.Next()
			if !ok {
				break
			}
			if timeLimit > 0 && off > timeLimit {
				break
			}
			plannedAt := start.Add(off)
			sleepUntil(plannedAt)
			wg.Add(1)
			go launch(i, plannedAt)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := &Result{Scenario: sc.Name, Elapsed: elapsed}
	queue := make([]time.Duration, 0, len(records))
	qpu := make([]time.Duration, 0, len(records))
	sojourn := make([]time.Duration, 0, len(records))
	for _, rec := range records {
		r.Retries += rec.retries
		r.Drops += rec.drops
		r.Redispatched += rec.redispatches
		if rec.stolen {
			r.Stolen++
		}
		if rec.err != nil {
			r.Failed++
			continue
		}
		queue = append(queue, rec.queueWait)
		qpu = append(qpu, rec.qpuWait)
		sojourn = append(sojourn, rec.sojourn)
	}
	r.Jobs = len(sojourn)
	r.QueueWait = stats.SummarizeDurations(queue)
	r.QPUWait = stats.SummarizeDurations(qpu)
	r.Sojourn = stats.SummarizeDurations(sojourn)
	if elapsed > 0 {
		r.Throughput = float64(r.Jobs) / elapsed.Seconds()
	}
	return r, nil
}

// runClosedLoop drives Clients concurrent submitters: submit, wait, think,
// repeat, until the horizon (job count or duration) closes intake.
func runClosedLoop(sc *workload.Scenario, start time.Time, wg *sync.WaitGroup, launch func(int, time.Time)) {
	var next atomic.Int64
	limit := sc.Horizon.Jobs
	timeLimit := sc.Horizon.Duration.D()
	think := sc.Arrival.Think.D()
	var clients sync.WaitGroup
	for c := 0; c < sc.Arrival.Clients; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				idx := int(next.Add(1)) - 1
				if limit > 0 && idx >= limit {
					return
				}
				if timeLimit > 0 && time.Since(start) > timeLimit {
					return
				}
				wg.Add(1)
				launch(idx, time.Now()) // synchronous: the client waits its job out
				if think > 0 {
					sleepUntil(time.Now().Add(think))
				}
			}
		}()
	}
	clients.Wait()
}

// sleepUntil paces to a scheduled instant with the service's precise
// sleep, which returns at or past the deadline: plain time.Sleep wakes
// about a millisecond late, which at hundreds of arrivals per second would
// smear every scheduled arrival.
func sleepUntil(deadline time.Time) {
	service.SleepPrecise(time.Until(deadline))
}

// errDropped marks a job whose whole submission budget was lost on the wire.
var errDropped = fmt.Errorf("loadgen: every submission attempt dropped")

// dropConnection realizes one wire-path connection drop against the live
// TCP front-end: it dials, writes half a frame (a length prefix promising
// more bytes than follow) and severs the connection, so the server walks
// its mid-request failure path. Best effort — the fault is the point, so
// errors are ignored.
func dropConnection(addr string, timeout time.Duration) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], 64) // promise 64 payload bytes...
	conn.Write(prefix[:])
	conn.Write([]byte(`{"di`)) // ...deliver four, then hang up mid-frame
	conn.Close()
}

// outagePlans materializes the scenario's per-device outage schedules out
// to a horizon safely past the workload's drain point; Drain/stop restores
// any device still down when the run ends.
func outagePlans(sc *workload.Scenario, fleet int) [][]service.Outage {
	return outagePlansAt(sc, fleet, 0)
}

// outagePlansAt is outagePlans with a global device-number base — shard x of
// a cluster draws streams base = x × per-shard fleet size, matching the
// DES's global numbering.
func outagePlansAt(sc *workload.Scenario, fleet, base int) [][]service.Outage {
	until := outageHorizon(sc)
	plans := make([][]service.Outage, fleet)
	for dev := 0; dev < fleet; dev++ {
		for _, o := range sc.OutageSchedule(base+dev, until) {
			plans[dev] = append(plans[dev], service.Outage{At: o.At, For: o.For})
		}
	}
	return plans
}

// outageHorizon bounds the materialized outage schedule: twice the declared
// duration horizon, or twice the expected arrival span of a job-count
// horizon, plus slack for the completion tail.
func outageHorizon(sc *workload.Scenario) time.Duration {
	const slack = 5 * time.Second
	if sc.Horizon.Duration > 0 {
		return 2*sc.Horizon.Duration.D() + slack
	}
	if r := sc.Arrival.MeanRate(); r > 0 && sc.Horizon.Jobs > 0 {
		return 2*time.Duration(float64(sc.Horizon.Jobs)/r*float64(time.Second)) + slack
	}
	return 30 * time.Second
}

// inProcess submits one profile job through the service API.
func (o Options) inProcess(p arch.JobProfile, class service.JobClass) (measure, error) {
	t, err := o.Service.SubmitProfileClass(p, class)
	if err != nil {
		return measure{}, err
	}
	if _, err := t.Wait(); err != nil {
		return measure{}, err
	}
	m := t.Metrics()
	return measure{queueWait: m.QueueWait, qpuWait: m.QPUWait, retries: m.Retries}, nil
}

// dialPool builds a pool of TCP clients and returns a submitter drawing
// from it plus a closer.
func dialPool(opts Options) (submitter, func(), error) {
	conns := opts.Conns
	if conns <= 0 {
		conns = 16
	}
	pool := make(chan *service.Client, conns)
	for i := 0; i < conns; i++ {
		c, err := service.DialTimeout(opts.Addr, opts.Timeout)
		if err != nil {
			// Close what we already dialed.
			for len(pool) > 0 {
				(<-pool).Close()
			}
			return nil, nil, fmt.Errorf("loadgen: dialing connection %d: %w", i, err)
		}
		if opts.Timeout > 0 {
			c.SetTimeout(opts.Timeout)
		}
		pool <- c
	}
	submit := func(p arch.JobProfile, class service.JobClass) (measure, error) {
		c := <-pool
		defer func() { pool <- c }()
		resp, err := c.ProfileClass(p, class)
		if err != nil {
			return measure{}, err
		}
		return measure{
			queueWait: time.Duration(resp.QueueWaitUS) * time.Microsecond,
			qpuWait:   time.Duration(resp.QPUWaitUS) * time.Microsecond,
			retries:   resp.Retries,
			routing:   resp.Routing,
		}, nil
	}
	closer := func() {
		for i := 0; i < conns; i++ {
			(<-pool).Close()
		}
	}
	return submit, closer, nil
}
