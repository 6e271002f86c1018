package service

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/sched"
)

// brokenDevice fails every Program call — the cheapest way to make every
// solve job fail without waiting on embedding searches.
type brokenDevice struct{}

func (brokenDevice) Program(*qubo.Ising) error { return errors.New("device bricked") }
func (brokenDevice) Execute(int, *rand.Rand) (*anneal.SampleSet, error) {
	return nil, errors.New("device bricked")
}
func (brokenDevice) QPUTime() (time.Duration, time.Duration) { return 0, 0 }

// TestDrainIdempotent: a second (and concurrent) Drain must not panic,
// double-close anything, or change the report.
func TestDrainIdempotent(t *testing.T) {
	svc, err := New(Options{Workers: 2, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	p := arch.JobProfile{PreProcess: time.Millisecond, QPUService: 500 * time.Microsecond}
	for i := 0; i < 6; i++ {
		if _, err := svc.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	var reps [3]Report
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // two concurrent Drains
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = svc.Drain()
		}(i)
	}
	wg.Wait()
	reps[2] = svc.Drain() // and a third, after shutdown completed
	for i, r := range reps {
		if r.Jobs != 6 || r.Failed != 0 {
			t.Errorf("drain %d: %d jobs, %d failed; want 6, 0", i, r.Jobs, r.Failed)
		}
		if r.Makespan != reps[0].Makespan {
			t.Errorf("drain %d makespan %v != first drain %v", i, r.Makespan, reps[0].Makespan)
		}
	}
	if _, err := svc.SubmitProfile(p); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after double drain: %v, want ErrClosed", err)
	}
}

// TestAllFailedReport pins the report shape when every submitted job fails:
// Jobs must be zero (it counts completions), Failed the full count, the
// makespan still the real wall time the failures took, and no field NaN or
// divided by zero.
func TestAllFailedReport(t *testing.T) {
	svc, err := New(Options{
		Workers: 2,
		Devices: []core.QPUDevice{brokenDevice{}},
		Base:    testBase(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	tickets := make([]*Ticket, n)
	for i := range tickets {
		if tickets[i], err = svc.SubmitQUBO(qubo.MaxCut(graph.Cycle(4), nil)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err == nil {
			t.Fatal("solve on a bricked device succeeded")
		}
	}
	rep := svc.Drain()
	if rep.Jobs != 0 {
		t.Errorf("Jobs = %d, want 0 (failures are not completions)", rep.Jobs)
	}
	if rep.Failed != n {
		t.Errorf("Failed = %d, want %d", rep.Failed, n)
	}
	if rep.Makespan <= 0 {
		t.Errorf("Makespan = %v, want > 0 — the failed jobs took real time", rep.Makespan)
	}
	if rep.Throughput != 0 {
		t.Errorf("Throughput = %v, want 0 with no completions", rep.Throughput)
	}
	if rep.QPUBusyFraction != rep.QPUBusyFraction || rep.QPUBusyFraction < 0 { // NaN check
		t.Errorf("QPUBusyFraction = %v", rep.QPUBusyFraction)
	}
	if rep.Sojourn.N != 0 || rep.Stage1Mean != 0 {
		t.Errorf("failure run leaked completion statistics: %+v", rep)
	}
	if len(rep.DeviceBusy) != 1 {
		t.Errorf("device ledger missing: %v", rep.DeviceBusy)
	}
}

// TestMixedFailureStageMeans: stage means must divide by the completed-job
// count, not the submission count — failures carry no stage ledger and
// would dilute every mean.
func TestMixedFailureStageMeans(t *testing.T) {
	// A bricked fleet fails every *solve* instantly at Program, while
	// profile jobs — which only hold the device token, never program it —
	// still succeed, giving a fast deterministic success/failure mix.
	svc, err := New(Options{Workers: 1, Devices: []core.QPUDevice{brokenDevice{}}, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	p := arch.JobProfile{
		PreProcess: 2 * time.Millisecond,
		QPUService: time.Millisecond,
	}
	const good = 3
	for i := 0; i < good; i++ {
		if _, err := svc.SubmitProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := svc.SubmitQUBO(qubo.MaxCut(graph.Cycle(4), nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Fatal("solve on a bricked device succeeded")
	}
	rep := svc.Drain()
	if rep.Jobs != good || rep.Failed != 1 {
		t.Fatalf("report: %d jobs, %d failed; want %d, 1", rep.Jobs, rep.Failed, good)
	}
	// Dividing by submissions (good+1) instead of completions (good) would
	// undershoot the known 2ms stage-1 cost by 25%.
	if rep.Stage1Mean < p.PreProcess {
		t.Errorf("Stage1Mean = %v, want >= %v (means must divide by completions)", rep.Stage1Mean, p.PreProcess)
	}
}

// TestTrySubmitDrainRace closes the PR 3 seed-stream guarantee over the
// drain path: TrySubmit hammering a draining service must only ever see
// ErrQueueFull or ErrClosed, every accepted ticket must complete, and the
// accepted submission indices must stay contiguous — a refused or
// drain-raced submit can never burn an index or enqueue after close. Run
// under -race in CI.
func TestTrySubmitDrainRace(t *testing.T) {
	svc, err := New(Options{Workers: 2, QueueDepth: 4, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	p := arch.JobProfile{PreProcess: 200 * time.Microsecond, QPUService: 100 * time.Microsecond}

	var (
		mu       sync.Mutex
		accepted []*Ticket
		wg       sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tk, err := svc.TrySubmitProfile(p)
				switch {
				case err == nil:
					mu.Lock()
					accepted = append(accepted, tk)
					mu.Unlock()
				case errors.Is(err, ErrClosed):
					// Intake closed under us: closed stays closed, so one
					// more call must agree.
					if _, err := svc.TrySubmitProfile(p); !errors.Is(err, ErrClosed) {
						t.Errorf("TrySubmit after ErrClosed: %v, want ErrClosed", err)
					}
					return
				case errors.Is(err, ErrQueueFull):
					// Legitimate under load; keep hammering.
				default:
					t.Errorf("TrySubmit: unexpected error %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	rep := svc.Drain()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(accepted) == 0 {
		t.Fatal("no submissions accepted before drain")
	}
	// Every accepted ticket completed (Drain finishes the backlog).
	indices := make([]int, 0, len(accepted))
	for _, tk := range accepted {
		if _, err := tk.Wait(); err != nil {
			t.Errorf("accepted job failed: %v", err)
		}
		indices = append(indices, tk.Metrics().Index)
	}
	sort.Ints(indices)
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("submission indices not contiguous: %v", indices)
		}
	}
	if rep.Jobs != len(accepted) || rep.Failed != 0 {
		t.Errorf("report %d jobs %d failed, want %d accepted jobs", rep.Jobs, rep.Failed, len(accepted))
	}
}

// TestBlockedSubmitDrainRace extends TestTrySubmitDrainRace to the blocking
// submit path: producers parked in push(block=true) on a full queue race
// Drain closing intake. Every producer must resolve — either ErrClosed or an
// accepted ticket that completes — and the accepted indices must stay
// contiguous: a producer woken by close can never burn a seed index, and one
// woken by space can never enqueue after close. Run under -race in CI.
func TestBlockedSubmitDrainRace(t *testing.T) {
	svc, err := New(Options{Workers: 2, QueueDepth: 2, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	p := arch.JobProfile{PreProcess: 300 * time.Microsecond, QPUService: 100 * time.Microsecond}

	const producers = 16
	var (
		mu       sync.Mutex
		accepted []*Ticket
		wg       sync.WaitGroup
	)
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tk, err := svc.SubmitProfile(p) // blocks on a full queue
				switch {
				case err == nil:
					mu.Lock()
					accepted = append(accepted, tk)
					mu.Unlock()
				case errors.Is(err, ErrClosed):
					// close() woke us (or intake was already closed):
					// closed stays closed.
					if _, err := svc.SubmitProfile(p); !errors.Is(err, ErrClosed) {
						t.Errorf("Submit after ErrClosed: %v, want ErrClosed", err)
					}
					return
				default:
					t.Errorf("Submit: unexpected error %v", err)
					return
				}
			}
		}()
	}
	// With depth 2 and 16 producers most goroutines are parked in
	// notFull.Wait when Drain closes intake under them.
	time.Sleep(20 * time.Millisecond)
	rep := svc.Drain()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(accepted) == 0 {
		t.Fatal("no submissions accepted before drain")
	}
	indices := make([]int, 0, len(accepted))
	for _, tk := range accepted {
		if _, err := tk.Wait(); err != nil {
			t.Errorf("accepted job failed: %v", err)
		}
		indices = append(indices, tk.Metrics().Index)
	}
	sort.Ints(indices)
	for i, idx := range indices {
		if idx != i {
			t.Fatalf("submission indices not contiguous: %v", indices)
		}
	}
	if rep.Jobs != len(accepted) || rep.Failed != 0 {
		t.Errorf("report %d jobs %d failed, want %d accepted jobs", rep.Jobs, rep.Failed, len(accepted))
	}
	if rep.Submitted != len(accepted) {
		t.Errorf("ledger: Submitted = %d, want %d", rep.Submitted, len(accepted))
	}
}

// TestPriorityPolicyLive: on a single-worker service under the priority
// policy, a high-priority job submitted after a low-priority one overtakes
// it in the backlog.
func TestPriorityPolicyLive(t *testing.T) {
	svc, err := New(Options{Workers: 1, QueueDepth: 8, Policy: sched.Priority, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	blocker := arch.JobProfile{PreProcess: 40 * time.Millisecond}
	quick := arch.JobProfile{PreProcess: 5 * time.Millisecond}
	if _, err := svc.SubmitProfile(blocker); err != nil { // occupies the worker
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the worker pick the blocker up
	lo, err := svc.SubmitProfileClass(quick, JobClass{Class: 0, Priority: 0, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := svc.SubmitProfileClass(quick, JobClass{Class: 1, Priority: 9, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	loM, hiM := lo.Metrics(), hi.Metrics()
	if hiM.Class != 1 || loM.Class != 0 {
		t.Errorf("class metadata lost: hi=%d lo=%d", hiM.Class, loM.Class)
	}
	// The high-priority job is picked first, so the low one also waits out
	// hi's service time.
	if loM.QueueWait < hiM.QueueWait+quick.PreProcess/2 {
		t.Errorf("priority policy did not reorder: hi wait %v, lo wait %v", hiM.QueueWait, loM.QueueWait)
	}
}

// TestFairSharePolicyLive: the live service accepts the weighted fair-share
// discipline and runs a classed job through it to a clean drain.
func TestFairSharePolicyLive(t *testing.T) {
	svc, err := New(Options{Workers: 1, QueueDepth: 4, Policy: sched.FairShare, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := svc.SubmitProfileClass(arch.JobProfile{PreProcess: time.Millisecond},
		JobClass{Class: 1, Priority: 2, Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if rep := svc.Drain(); rep.Jobs != 1 || rep.Failed != 0 || tk.Metrics().Class != 1 {
		t.Fatalf("drain report %+v, class %d", rep, tk.Metrics().Class)
	}
}

// TestQueueWaitIncludesBackpressure: a Submit blocked on a full queue is
// queueing — its QueueWait must be clocked from the Submit call, not from
// the instant space freed up, or the report underestimates exactly the
// contention it exists to measure.
func TestQueueWaitIncludesBackpressure(t *testing.T) {
	svc, err := New(Options{Workers: 1, QueueDepth: 1, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	blocker := arch.JobProfile{PreProcess: 40 * time.Millisecond}
	filler := arch.JobProfile{PreProcess: 10 * time.Millisecond}
	if _, err := svc.SubmitProfile(blocker); err != nil { // occupies the worker
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)                     // ensure the worker holds the blocker
	if _, err := svc.SubmitProfile(filler); err != nil { // fills the queue
		t.Fatal(err)
	}
	tk, err := svc.SubmitProfile(filler) // blocks until the filler is picked up
	if err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	// The third submit blocked ~35ms for the blocker plus ~10ms for the
	// first filler's service before pickup.
	if w := tk.Metrics().QueueWait; w < 25*time.Millisecond {
		t.Errorf("QueueWait = %v, want >= ~35ms including the backpressure block", w)
	}
}

// TestNewRejectsUnknownPolicy pins construction-time validation.
func TestNewRejectsUnknownPolicy(t *testing.T) {
	if _, err := New(Options{Policy: "lifo", Base: testBase()}); err == nil {
		t.Error("unknown policy accepted")
	}
}
