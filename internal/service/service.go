// Package service implements a concurrent split-execution solver service:
// many client jobs multiplexed over a configurable fleet of QPU devices by a
// pool of host workers. It is the live counterpart of the architecture
// models in internal/arch — the deployment choices of the paper's Fig. 1 map
// directly onto its configuration:
//
//	Workers=1, Fleet=1   asymmetric multi-processor (Fig. 1a)
//	Workers=H, Fleet=1   shared-resource: H hosts contend for one QPU (Fig. 1b)
//	Workers=H, Fleet=H   dedicated QPU per node (Fig. 1c)
//
// Jobs flow through a bounded queue with backpressure (Submit blocks when
// the queue is full; TrySubmit refuses) ordered by a pluggable scheduling
// policy (internal/sched): FIFO by default, or strict priority, shortest-
// expected-QPU-time-first and weighted fair share — the same disciplines
// the discrete-event simulator realizes, selected per workload.Scenario so
// measured and simulated runs compare policy-for-policy. Each worker plays
// the role of
// one host: it runs the classical stages itself and leases a device from the
// shared fleet only for the serialized QPU interaction (program + execute),
// exactly the service-token discipline of arch.Simulate. Per-job RNG streams
// are derived from the submission index with parallel.DeriveSeed, so results
// are byte-identical regardless of worker count or interleaving.
//
// The service measures what the models predict: per-job queue wait, device
// wait, device occupancy and stage times, and aggregate makespan, throughput
// and QPU busy fraction — making the measured-vs-modeled comparison of
// docs/architectures.md a one-call affair.
package service

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/obs"
	"github.com/splitexec/splitexec/internal/parallel"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/sched"
	"github.com/splitexec/splitexec/internal/stats"
)

// Errors reported by the submission API.
var (
	// ErrClosed is returned by Submit after Drain has begun.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull is returned by TrySubmit when the bounded queue is full.
	ErrQueueFull = errors.New("service: queue full")
)

// Options configure a Service.
type Options struct {
	// Workers is the number of host workers — the H of Fig. 1(b)/(c).
	// Each worker owns one solver outright (core.Solver is documented
	// single-goroutine) and reseeds it per job, so concurrent jobs never
	// share mutable solver state. Values <= 0 select 1.
	Workers int
	// QueueDepth bounds the job queue; Submit blocks (backpressure) and
	// TrySubmit fails once the queue holds this many waiting jobs.
	// Values <= 0 select 2×Workers.
	QueueDepth int
	// Policy selects the queue discipline jobs wait under: sched.FIFO
	// (the default when empty), sched.Priority, sched.ShortestQPU or
	// sched.FairShare. Per-job scheduling attributes ride in through
	// SubmitProfileClass (and the wire protocol's class fields); plain
	// submits carry the zero class.
	Policy sched.Policy
	// Fleet is the number of simulated QPU devices to build from Base:
	// 1 is the paper's shared-resource architecture, Workers is
	// dedicated-per-node. Ignored when Devices is non-empty. Values <= 0
	// select 1.
	Fleet int
	// Devices, when non-empty, is the explicit device fleet. Devices are
	// leased exclusively per QPU interaction, so they need not be safe
	// for concurrent use (qpuserver.Client handles to remote QPUs work
	// too).
	Devices []core.QPUDevice
	// Base is the solver configuration template for solve jobs. Its
	// Device, Seed and Cache fields are managed by the service: Device is
	// replaced with a fleet lease, Seed with a per-job derived stream,
	// and Cache with Options.Cache.
	Base core.Config
	// Seed derives the per-job RNG streams (parallel.DeriveSeed(Seed,
	// submission index)); the zero seed is valid and deterministic.
	Seed int64
	// MaxRetries is the per-job retry budget for leases revoked by device
	// deaths (FailDevice): a job whose service attempt aborts re-acquires
	// a device after RetryBackoff, up to this many times, then fails with
	// ErrLeaseRevoked. 0 selects 3 (the workload fault default); negative
	// disables retries.
	MaxRetries int
	// RetryBackoff is the pause before each retry; <= 0 selects 1ms.
	RetryBackoff time.Duration
	// Obs, when non-nil, is the telemetry scope the service publishes into:
	// job counters and latency histograms into its registry, per-job
	// lifecycle spans into its tracer, and completed-job sojourns into its
	// drift alarm (arm the alarm before traffic starts). A nil scope — the
	// default — disables telemetry at one nil-check per operation.
	Obs *obs.Scope
	// Cache, when non-nil, is shared by all workers for off-line
	// embedding lookup. core.EmbeddingCache is safe for concurrent use.
	// Note that with isomorphic problems in flight concurrently, which
	// job populates the cache first is scheduling-dependent, so embedding
	// choices (not solution validity) may vary between runs; submit
	// distinct problems or pre-warm the cache when byte-identical replays
	// matter.
	Cache *core.EmbeddingCache
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.Fleet <= 0 {
		o.Fleet = 1
	}
	if o.Base.Node.Name == "" {
		o.Base.Node = machine.SimpleNode()
	}
	return o
}

// JobMetrics is the per-job measurement record. It marshals to JSON (every
// duration in nanoseconds) for machine-readable ops output.
type JobMetrics struct {
	// Index is the submission index (also the seed-derivation index).
	Index int `json:"index"`
	// Class is the workload class the job declared at submission (zero for
	// plain submits) — the key fair-share accounting and per-class latency
	// analysis group by.
	Class int `json:"class,omitempty"`
	// QueueWait is the time from Submit to a worker picking the job up.
	QueueWait time.Duration `json:"queueWait"`
	// QPUWait is the time the job spent blocked waiting for a fleet
	// device — the contention cost of the shared-resource architecture.
	QPUWait time.Duration `json:"qpuWait"`
	// QPUHeld is the wall-clock time the job occupied its device
	// (program + execute).
	QPUHeld time.Duration `json:"qpuHeld"`
	// Stage1, Stage2, Stage3 are the pipeline stage times: for solve
	// jobs the solver's Timing entries (QPU phases in virtual hardware
	// time), for profile jobs the synthetic phase durations.
	Stage1 time.Duration `json:"stage1"`
	Stage2 time.Duration `json:"stage2"`
	Stage3 time.Duration `json:"stage3"`
	// Total is the end-to-end latency from Submit to completion — the
	// sojourn time of the open-system models.
	Total time.Duration `json:"total"`
	// Retries counts service attempts aborted by a device death and
	// re-dispatched; zero outside a fault regime.
	Retries int `json:"retries,omitempty"`
}

// Ticket is the handle to one submitted job.
type Ticket struct {
	index    int
	enqueued time.Time
	run      func(s *Service, h *host, t *Ticket)
	done     chan struct{}

	sol     *core.Solution
	err     error
	metrics JobMetrics
	span    *obs.SpanBuilder
}

// Wait blocks until the job completes and returns its solution (nil for
// synthetic profile jobs) and error.
func (t *Ticket) Wait() (*core.Solution, error) {
	<-t.done
	return t.sol, t.err
}

// Metrics returns the job's measurement record; valid after Wait.
func (t *Ticket) Metrics() JobMetrics {
	<-t.done
	return t.metrics
}

// fleetDevice is one QPU service token plus its occupancy ledger and fault
// state. A device lives in exactly one place at a time: the idle channel,
// held by a worker, or parked (dead and out of circulation); the down/
// parked flags and the lease revocation channel are guarded by mu.
type fleetDevice struct {
	id  int
	dev core.QPUDevice

	mu     sync.Mutex
	busy   time.Duration
	down   bool          // FailDevice has killed it
	parked bool          // dead and withheld from the idle pool
	lease  chan struct{} // current holder's revocation channel
}

func (f *fleetDevice) addBusy(d time.Duration) {
	f.mu.Lock()
	f.busy += d
	f.mu.Unlock()
}

func (f *fleetDevice) busyTime() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.busy
}

// Service dispatches jobs over the host workers and the device fleet.
type Service struct {
	opts  Options
	queue *jobQueue
	idle  chan *fleetDevice // free-device pool; len(fleet) tokens
	fleet []*fleetDevice
	om    svcMetrics // telemetry handles (obs.go); nil handles when disabled
	wg    sync.WaitGroup

	epMu sync.Mutex
	ep   *qpuserver.Endpoint // TCP front-end (wire.go); nil when not listening

	mu          sync.Mutex
	next        int // next submission index
	firstSubmit time.Time
	lastDone    time.Time
	completed   []JobMetrics // successfully completed jobs only
	failed      int
	retries     int      // lease-revocation retries across all jobs
	outageStops []func() // registered fault controllers (faults.go)
}

// New builds the fleet, starts the workers and returns a running service.
func New(opts Options) (*Service, error) {
	o := opts.withDefaults()
	if !sched.Valid(o.Policy) {
		return nil, fmt.Errorf("service: unknown policy %q (want %v)", o.Policy, sched.Policies())
	}
	s := &Service{
		opts:  o,
		queue: newJobQueue(o.Policy, o.QueueDepth),
	}
	devs := o.Devices
	if len(devs) == 0 {
		timings := o.Base.Node.QPU.Timings
		if o.Base.Schedule != nil {
			// Mirror core.NewSolver: a programmed waveform sets the
			// per-read anneal cost.
			timings.AnnealTime = o.Base.Schedule.Duration()
		}
		for i := 0; i < o.Fleet; i++ {
			dev := anneal.NewDevice(timings, o.Base.Sampler)
			dev.SQA = o.Base.SQA
			dev.Workers = o.Base.ReadWorkers
			devs = append(devs, core.LocalDevice(dev))
		}
	}
	s.idle = make(chan *fleetDevice, len(devs))
	for i, d := range devs {
		fd := &fleetDevice{id: i, dev: d}
		s.fleet = append(s.fleet, fd)
		s.idle <- fd
	}
	s.initObs()
	for w := 0; w < o.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Workers returns the host worker count.
func (s *Service) Workers() int { return s.opts.Workers }

// FleetSize returns the number of QPU devices in the fleet.
func (s *Service) FleetSize() int { return len(s.fleet) }

// Policy returns the queue discipline the service schedules under.
func (s *Service) Policy() sched.Policy { return sched.Normalize(s.opts.Policy) }

// worker is one host: it drains the job queue in policy order, timing each
// job. Failed jobs count toward the failure ledger, not the completion
// distributions.
func (s *Service) worker() {
	defer s.wg.Done()
	var h host
	for {
		t, ok := s.queue.pop()
		if !ok {
			return
		}
		t.metrics.QueueWait = time.Since(t.enqueued)
		t.span.Event(obs.StageQueue)
		t.run(s, &h, t)
		t.metrics.Total = time.Since(t.enqueued)
		s.om.queueWait.Observe(t.metrics.QueueWait)
		s.om.qpuWait.Observe(t.metrics.QPUWait)
		s.om.sojourn.Observe(t.metrics.Total)
		s.mu.Lock()
		now := time.Now()
		if now.After(s.lastDone) {
			s.lastDone = now
		}
		if t.err != nil {
			s.failed++
		} else {
			s.completed = append(s.completed, t.metrics)
		}
		s.mu.Unlock()
		if t.err != nil {
			s.om.failed.Inc()
			t.span.Finish(t.err.Error())
		} else {
			s.om.completed.Inc()
			// Completed sojourns feed the predicted-vs-measured loop; failed
			// jobs never do — a fault storm is an availability problem, not
			// evidence the latency model drifted.
			s.opts.Obs.DriftAlarm().Observe(t.metrics.Class, t.metrics.Total)
			t.span.Finish("")
		}
		close(t.done)
	}
}

// submit enqueues a ticket with its scheduling attributes, blocking for
// queue space when block is set. Submission indices are the determinism
// anchor (per-job seeds derive from them), so an index is consumed only
// when a ticket actually enqueues — a refused TrySubmit, or a Submit that
// loses the race with Drain, must not shift the seed streams of later jobs.
// The index is allocated inside the queue's push critical section, so index
// order equals enqueue order. QueueWait is clocked from the Submit call
// itself, so backpressure blocking counts as queueing — the condition it
// measures.
func (s *Service) submit(run func(*Service, *host, *Ticket), class sched.Job, block bool) (*Ticket, error) {
	submitAt := time.Now()
	return s.queue.push(func() *Ticket {
		t := &Ticket{run: run, done: make(chan struct{}), enqueued: submitAt}
		s.mu.Lock()
		t.index = s.next
		s.next++
		if s.firstSubmit.IsZero() {
			s.firstSubmit = submitAt
		}
		s.mu.Unlock()
		t.metrics.Index = t.index
		t.metrics.Class = class.Class
		s.om.submitted.Inc()
		// The span attaches inside the push critical section: push's mutex
		// happens-before the worker's pop, so the worker always sees it.
		t.span = s.opts.Obs.Tracer().Start("job", int64(t.index), class.Class)
		return t
	}, class, block)
}

// JobClass carries the scheduling attributes a job declares at submission:
// its workload-class index, its priority under sched.Priority (larger is
// served sooner), and its fair-share weight under sched.FairShare (<= 0
// means 1). The zero JobClass is the plain default every classless submit
// uses.
type JobClass struct {
	Class    int
	Priority int
	Weight   float64
}

// schedJob builds the queue-ordering attributes for a profile job: the
// declared class plus the profile's own QPU and total service times (the
// SJF key and the fair-share charge).
func (c JobClass) schedJob(p arch.JobProfile) sched.Job {
	return sched.Job{
		Class:       c.Class,
		Priority:    c.Priority,
		Weight:      c.Weight,
		ExpectedQPU: p.QPUService,
		Cost:        p.Total(),
	}
}

// SubmitQUBO enqueues a QUBO solve, blocking while the queue is full.
func (s *Service) SubmitQUBO(q *qubo.QUBO) (*Ticket, error) {
	if q == nil {
		return nil, errors.New("service: nil QUBO")
	}
	return s.submit(solveRun(q, nil), sched.Job{Weight: 1}, true)
}

// TrySubmitQUBO is SubmitQUBO without backpressure blocking: it returns
// ErrQueueFull when the bounded queue cannot take the job now.
func (s *Service) TrySubmitQUBO(q *qubo.QUBO) (*Ticket, error) {
	if q == nil {
		return nil, errors.New("service: nil QUBO")
	}
	return s.submit(solveRun(q, nil), sched.Job{Weight: 1}, false)
}

// SubmitIsing enqueues a logical-Ising solve, blocking while the queue is
// full.
func (s *Service) SubmitIsing(m *qubo.Ising) (*Ticket, error) {
	if m == nil {
		return nil, errors.New("service: nil Ising")
	}
	return s.submit(solveRun(nil, m), sched.Job{Weight: 1}, true)
}

// SubmitProfile enqueues a synthetic job that exercises the dispatch
// machinery with the exact phase costs of an arch.JobProfile: the worker
// sleeps through the classical phases and holds a fleet device for
// QPUService, so the measured makespan of a profile batch is directly
// comparable to arch.Simulate's prediction.
func (s *Service) SubmitProfile(p arch.JobProfile) (*Ticket, error) {
	return s.SubmitProfileClass(p, JobClass{Weight: 1})
}

// SubmitProfileClass is SubmitProfile with explicit scheduling attributes —
// the load generator's entry point for realizing a scenario's policy on the
// live service.
func (s *Service) SubmitProfileClass(p arch.JobProfile, c JobClass) (*Ticket, error) {
	if p.PreProcess < 0 || p.Network < 0 || p.QPUService < 0 || p.PostProcess < 0 {
		return nil, fmt.Errorf("service: negative phase time in %+v", p)
	}
	if c.Class < 0 {
		return nil, fmt.Errorf("service: negative job class %d", c.Class)
	}
	return s.submit(profileRun(p), c.schedJob(p), true)
}

// TrySubmitProfile is SubmitProfile without backpressure blocking.
func (s *Service) TrySubmitProfile(p arch.JobProfile) (*Ticket, error) {
	if p.PreProcess < 0 || p.Network < 0 || p.QPUService < 0 || p.PostProcess < 0 {
		return nil, fmt.Errorf("service: negative phase time in %+v", p)
	}
	return s.submit(profileRun(p), JobClass{Weight: 1}.schedJob(p), false)
}

// host is what one worker builds once for all its solve jobs: a solver
// over a lease the worker keeps. The solver's working graph and device
// adapter are the same for every job; only the lease's ticket and ledger
// and the solver's random stream are per job.
type host struct {
	lease  leasedDevice
	solver *core.Solver
}

// solverFor points the lease at t with an empty ledger and reseeds the
// solver with t's stream, parallel.DeriveSeed(Seed, index), building the
// solver on the worker's first solve job.
func (h *host) solverFor(s *Service, t *Ticket) *core.Solver {
	h.lease = leasedDevice{svc: s, t: t}
	if h.solver == nil {
		cfg := s.opts.Base
		cfg.Cache = s.opts.Cache
		cfg.Device = &h.lease
		h.solver = core.NewSolver(cfg)
	}
	h.solver.Reseed(parallel.DeriveSeed(s.opts.Seed, t.index))
	return h.solver
}

// solveRun builds the runner for a solve job: the worker's solver, reseeded
// from the submission index, over a leased fleet device.
func solveRun(q *qubo.QUBO, m *qubo.Ising) func(*Service, *host, *Ticket) {
	return func(s *Service, h *host, t *Ticket) {
		solver := h.solverFor(s, t)
		defer h.lease.release()
		if q != nil {
			t.sol, t.err = solver.SolveQUBO(q)
		} else {
			t.sol, t.err = solver.SolveIsing(m)
		}
		if t.sol != nil {
			t.metrics.Stage1 = t.sol.Timing.Stage1()
			t.metrics.Stage2 = t.sol.Timing.Stage2()
			t.metrics.Stage3 = t.sol.Timing.Stage3()
		}
	}
}

// profileRun builds the runner for a synthetic profile job, replaying
// arch.Simulate's per-job discipline in real time: pre-process on the host,
// request network, queue for a device, serialized service, response network,
// post-process. A device death mid-service revokes the lease (faults.go):
// the host keeps the job and re-acquires a device after the backoff, up to
// the retry budget, then fails with ErrLeaseRevoked — the exact abort/
// retry/fail event sequence the DES realizes for the same scenario.
func profileRun(p arch.JobProfile) func(*Service, *host, *Ticket) {
	return func(s *Service, _ *host, t *Ticket) {
		sleep(p.PreProcess)
		sleep(p.Network)
		for attempt := 0; ; attempt++ {
			waitStart := time.Now()
			fd, lease := s.acquire()
			t.metrics.QPUWait += time.Since(waitStart)
			t.span.Event(obs.StageLease)
			held := time.Now()
			revoked := sleepLease(p.QPUService, lease)
			occupancy := time.Since(held)
			fd.addBusy(occupancy)
			t.metrics.QPUHeld += occupancy
			s.releaseDevice(fd)
			if !revoked {
				t.span.Event(obs.StageExecute)
				break
			}
			if attempt >= s.maxRetries() {
				t.err = ErrLeaseRevoked
				return
			}
			t.metrics.Retries++
			s.addRetry()
			t.span.Event(obs.StageRetry)
			t.span.AddRetry()
			sleep(s.retryBackoff())
		}
		sleep(p.Network)
		sleep(p.PostProcess)
		t.metrics.Stage1 = p.PreProcess
		t.metrics.Stage2 = p.QPUService
		t.metrics.Stage3 = p.PostProcess
	}
}

// Precise phase replay: time.Sleep quantizes to the kernel tick (about a
// millisecond on stock server kernels), which would bury millisecond-scale
// phase costs in overshoot and push every measured-vs-modeled comparison
// off its band. SleepPrecise sleeps short by a calibrated slack and
// yield-spins the remainder, keeping replay accurate to microseconds at a
// bounded CPU cost per phase — on high-resolution-timer machines the
// calibration shrinks the slack (and the spin) by an order of magnitude.
var (
	slackOnce  sync.Once
	sleepSlack time.Duration
)

// Calibrate off the critical path: lazily, the 5-nap measurement would land
// inside the first replayed job (or the load generator's first paced
// arrival) and charge ~5 ms of calibration to that job's latency.
func init() { go slackOnce.Do(calibrateSlack) }

// calibrateSlack measures the worst sleep overshoot of a few short naps;
// the spin tail must cover it or phases inherit the tick error.
func calibrateSlack() {
	worst := time.Duration(0)
	for i := 0; i < 5; i++ {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	sleepSlack = min(max(worst+worst/2, 200*time.Microsecond), 2*time.Millisecond)
}

// SleepPrecise sleeps for d with sub-tick accuracy. It is the phase-replay
// primitive behind profile jobs and the load generator's arrival pacing.
func SleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	slackOnce.Do(calibrateSlack)
	deadline := time.Now().Add(d)
	if d > sleepSlack {
		time.Sleep(d - sleepSlack)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

func sleep(d time.Duration) { SleepPrecise(d) }

// leasedDevice adapts the fleet to core.QPUDevice: Program acquires a
// device and holds it through Execute, so one job's program can never be
// clobbered by another's between the two calls — the atomic "QPU service"
// unit of the architecture models. QPUTime reports only this lease's
// virtual-time deltas, keeping per-job Timing correct on a shared device.
type leasedDevice struct {
	svc *Service
	t   *Ticket

	fd       *fleetDevice
	acquired time.Time

	prog, exec time.Duration
}

// Program leases a fleet device and uploads the model. Solve jobs acquire
// through the fault-aware pool (so they never lease a dead device) but do
// not watch the revocation channel: a revoked solve runs its device
// interaction to completion — the anneal result is already in flight — and
// the device parks at release.
func (l *leasedDevice) Program(m *qubo.Ising) error {
	if l.fd == nil {
		waitStart := time.Now()
		l.fd, _ = l.svc.acquire()
		l.t.metrics.QPUWait += time.Since(waitStart)
		l.acquired = time.Now()
		l.t.span.Event(obs.StageLease)
	}
	p0, _ := l.fd.dev.QPUTime()
	err := l.fd.dev.Program(m)
	p1, _ := l.fd.dev.QPUTime()
	l.prog += p1 - p0
	l.t.span.Event(obs.StageProgram)
	if err != nil {
		l.release()
	}
	return err
}

// Execute runs the reads on the leased device and releases it.
func (l *leasedDevice) Execute(reads int, rng *rand.Rand) (*anneal.SampleSet, error) {
	if l.fd == nil {
		return nil, errors.New("service: Execute before Program")
	}
	_, e0 := l.fd.dev.QPUTime()
	set, err := l.fd.dev.Execute(reads, rng)
	_, e1 := l.fd.dev.QPUTime()
	l.exec += e1 - e0
	l.t.span.Event(obs.StageExecute)
	if err == nil {
		l.t.span.Event(obs.StageRead)
	}
	l.release()
	return set, err
}

// QPUTime reports the lease's own virtual-time ledger.
func (l *leasedDevice) QPUTime() (programming, execution time.Duration) {
	return l.prog, l.exec
}

// release returns the device to the pool; it is idempotent.
func (l *leasedDevice) release() {
	if l.fd == nil {
		return
	}
	occupancy := time.Since(l.acquired)
	l.fd.addBusy(occupancy)
	l.t.metrics.QPUHeld += occupancy
	l.svc.releaseDevice(l.fd)
	l.fd = nil
}

// Report is the aggregate measurement of a service run. It marshals to
// JSON (durations in nanoseconds) so `splitexec serve` can emit a
// machine-readable drain report.
type Report struct {
	Jobs   int `json:"jobs"`   // completed jobs
	Failed int `json:"failed"` // jobs that returned an error
	// Submitted counts every consumed submission index. Jobs + Failed ==
	// Submitted after Drain is the ledger's conservation invariant: every
	// admitted job completes or fails, never both, never neither — the
	// property the chaos tests pin under injected faults.
	Submitted int `json:"submitted"`
	// Retries counts service attempts aborted by device deaths and
	// re-dispatched across all jobs.
	Retries int `json:"retries,omitempty"`

	// Makespan is first-Submit to last-completion wall time; Throughput
	// is Jobs over Makespan in jobs/second.
	Makespan   time.Duration `json:"makespan"`
	Throughput float64       `json:"throughput"`

	// Queue wait, device wait and sojourn (Submit-to-completion)
	// distributions across completed jobs — the open-system metrics the
	// DES predicts (stats.DurationSummary is the shared digest shape).
	QueueWait stats.DurationSummary `json:"queueWait"`
	QPUWait   stats.DurationSummary `json:"qpuWait"`
	Sojourn   stats.DurationSummary `json:"sojourn"`

	// Queue and device contention (digest aliases kept for the
	// closed-batch consumers).
	QueueWaitMean time.Duration `json:"queueWaitMean"`
	QueueWaitMax  time.Duration `json:"queueWaitMax"`
	QPUWaitMean   time.Duration `json:"qpuWaitMean"`

	// DeviceBusy is the cumulative wall-clock occupancy per fleet device;
	// QPUBusyFraction is total occupancy over fleet capacity × makespan —
	// the utilization the paper's bottleneck analysis predicts stays low
	// when classical pre-processing dominates.
	DeviceBusy      []time.Duration `json:"deviceBusy"`
	QPUBusyFraction float64         `json:"qpuBusyFraction"`

	// Stage means across completed jobs.
	Stage1Mean time.Duration `json:"stage1Mean"`
	Stage2Mean time.Duration `json:"stage2Mean"`
	Stage3Mean time.Duration `json:"stage3Mean"`
}

// Drain closes intake, waits for every queued job to finish and returns the
// aggregate report. Submit calls racing Drain either enqueue before intake
// closes or fail with ErrClosed; enqueued jobs are always completed. Drain
// is idempotent: a second call (even concurrent with the first) waits for
// the same shutdown and returns the same report.
//
// Drain also ends any fault regime: registered outage controllers stop and
// every dead device revives before the queue closes, so in-flight retries
// always find a device and no worker wedges on an all-dead fleet. A job
// mid-retry at Drain time finishes its retry loop and lands in exactly one
// ledger — completions or failures — never both.
func (s *Service) Drain() Report {
	s.CloseListener() // stop the TCP front-end first, if one is running
	s.stopOutages()
	s.restoreFleet()
	s.queue.close()
	s.wg.Wait()
	return s.report()
}

// Snapshot reports the run so far without draining: the same aggregate shape
// as Drain's report, computed over the jobs finished at call time. It is the
// periodic-progress hook behind `-report every` — safe to call concurrently
// with submissions and workers, at the cost of one ledger lock and a digest
// pass over the completed jobs.
func (s *Service) Snapshot() Report {
	return s.report()
}

func (s *Service) report() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Report{Jobs: len(s.completed), Failed: s.failed, Submitted: s.next, Retries: s.retries}
	// Makespan covers every finished job, successful or not: an all-failed
	// run still took wall time, and reporting zero would read as "nothing
	// happened". Throughput counts completions only.
	if r.Jobs+r.Failed > 0 && !s.firstSubmit.IsZero() && s.lastDone.After(s.firstSubmit) {
		r.Makespan = s.lastDone.Sub(s.firstSubmit)
	}
	// The device ledger is real work regardless of job outcomes (a solve
	// can fail after holding a device), so report it unconditionally.
	var busy time.Duration
	for _, fd := range s.fleet {
		b := fd.busyTime()
		r.DeviceBusy = append(r.DeviceBusy, b)
		busy += b
	}
	if r.Makespan > 0 && len(s.fleet) > 0 {
		r.QPUBusyFraction = float64(busy) / (float64(r.Makespan) * float64(len(s.fleet)))
	}
	if r.Jobs == 0 {
		return r
	}
	if r.Makespan > 0 {
		r.Throughput = float64(r.Jobs) / r.Makespan.Seconds()
	}
	queue := make([]time.Duration, 0, r.Jobs)
	qpu := make([]time.Duration, 0, r.Jobs)
	sojourn := make([]time.Duration, 0, r.Jobs)
	var s1, s2, s3 time.Duration
	for _, m := range s.completed {
		queue = append(queue, m.QueueWait)
		qpu = append(qpu, m.QPUWait)
		sojourn = append(sojourn, m.Total)
		s1 += m.Stage1
		s2 += m.Stage2
		s3 += m.Stage3
	}
	r.QueueWait = stats.SummarizeDurations(queue)
	r.QPUWait = stats.SummarizeDurations(qpu)
	r.Sojourn = stats.SummarizeDurations(sojourn)
	r.QueueWaitMean = r.QueueWait.Mean
	r.QueueWaitMax = r.QueueWait.Max
	r.QPUWaitMean = r.QPUWait.Mean
	// Stage means divide by the completed-job count only: failed jobs have
	// no stage ledger, and folding them in would dilute every mean.
	n := time.Duration(r.Jobs)
	r.Stage1Mean = s1 / n
	r.Stage2Mean = s2 / n
	r.Stage3Mean = s3 / n
	return r
}
