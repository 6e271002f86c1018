package service

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/parallel"
	"github.com/splitexec/splitexec/internal/qubo"
)

// testBase returns a small, fast solver configuration: a C(4,4,4) QPU and a
// light annealer.
func testBase() core.Config {
	node := machine.SimpleNode()
	node.QPU.Topology = graph.Chimera{M: 4, N: 4, L: 4}
	return core.Config{
		Node:    node,
		Sampler: anneal.SamplerOptions{Sweeps: 32},
	}
}

// testProblems returns pairwise non-isomorphic QUBO instances, so shared-
// cache population order cannot leak into results (see Options.Cache).
func testProblems() []*qubo.QUBO {
	return []*qubo.QUBO{
		qubo.MaxCut(graph.Cycle(6), nil),
		qubo.MaxCut(graph.Path(7), nil),
		qubo.MaxCut(graph.Star(6), nil),
		qubo.MaxCut(graph.Grid(2, 4), nil),
		qubo.MaxCut(graph.Complete(4), nil),
		qubo.MaxCut(graph.Cycle(9), nil),
		qubo.MaxCut(graph.Grid(3, 3), nil),
		qubo.MaxCut(graph.Path(5), nil),
	}
}

// solveAll runs every problem through a fresh service and returns the
// solutions in submission order.
func solveAll(t *testing.T, workers, fleet int, cache *core.EmbeddingCache) []*core.Solution {
	t.Helper()
	svc, err := New(Options{
		Workers: workers,
		Fleet:   fleet,
		Base:    testBase(),
		Seed:    41,
		Cache:   cache,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	problems := testProblems()
	tickets := make([]*Ticket, len(problems))
	for i, q := range problems {
		if tickets[i], err = svc.SubmitQUBO(q); err != nil {
			t.Fatalf("SubmitQUBO %d: %v", i, err)
		}
	}
	sols := make([]*core.Solution, len(tickets))
	for i, tk := range tickets {
		sol, err := tk.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		sols[i] = sol
	}
	rep := svc.Drain()
	if rep.Jobs != len(problems) || rep.Failed != 0 {
		t.Fatalf("report: %d jobs, %d failed; want %d, 0", rep.Jobs, rep.Failed, len(problems))
	}
	return sols
}

// fingerprint reduces a solution to a comparable byte-exact summary.
func fingerprint(sol *core.Solution) string {
	s := fmt.Sprintf("spins=%v energy=%x reads=%d broken=%d samples=", sol.Spins, sol.Energy, sol.Reads, sol.BrokenChains)
	for _, smp := range sol.Samples.Samples {
		s += fmt.Sprintf("[%v %x]", smp.Spins, smp.Energy)
	}
	return s
}

// TestDeterministicAcrossWorkerCounts is the service's core guarantee:
// per-job seed streams come from the submission index, so the full readout
// ensemble of every job is byte-identical at any worker count and fleet
// size, no matter how workers interleave on the shared devices.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := solveAll(t, 1, 1, core.NewEmbeddingCache())
	configs := []struct{ workers, fleet int }{
		{4, 1}, // shared-resource contention
		{4, 2}, // partial fleet
		{8, 8}, // dedicated
	}
	for _, cfg := range configs {
		got := solveAll(t, cfg.workers, cfg.fleet, core.NewEmbeddingCache())
		for i := range ref {
			if fingerprint(ref[i]) != fingerprint(got[i]) {
				t.Errorf("workers=%d fleet=%d: job %d diverged from serial run:\n  ref %s\n  got %s",
					cfg.workers, cfg.fleet, i, fingerprint(ref[i]), fingerprint(got[i]))
			}
		}
	}
}

// TestSharedCacheHit: a repeated input graph embeds once; the second solve
// hits the shared off-line cache.
func TestSharedCacheHit(t *testing.T) {
	cache := core.NewEmbeddingCache()
	svc, err := New(Options{Workers: 2, Fleet: 1, Base: testBase(), Cache: cache})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Drain()
	q := qubo.MaxCut(graph.Cycle(8), nil)

	tk, err := svc.SubmitQUBO(q)
	if err != nil {
		t.Fatalf("SubmitQUBO: %v", err)
	}
	if sol, err := tk.Wait(); err != nil {
		t.Fatalf("first solve: %v", err)
	} else if sol.Timing.CacheHit {
		t.Fatalf("first solve hit an empty cache")
	}

	tk, err = svc.SubmitQUBO(q)
	if err != nil {
		t.Fatalf("SubmitQUBO: %v", err)
	}
	sol, err := tk.Wait()
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if !sol.Timing.CacheHit {
		t.Errorf("second solve of the same graph missed the shared cache")
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

// TestReusedSolverMatchesFreshSolver submits misses and then relabelled
// hits one at a time to a two-worker service, whose workers keep one
// solver and one device across jobs. Every job must answer exactly as a
// fresh core.NewSolver seeded with parallel.DeriveSeed(Seed, index), over a
// fresh device and a cache that has seen the same jobs.
func TestReusedSolverMatchesFreshSolver(t *testing.T) {
	const seed = 41
	svc, err := New(Options{Workers: 2, Fleet: 1, Base: testBase(), Seed: seed, Cache: core.NewEmbeddingCache()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	jobs := testProblems()
	misses := len(jobs)
	rng := rand.New(rand.NewSource(3))
	for _, q := range jobs[:misses] {
		g := q.Graph()
		perm := rng.Perm(g.Order())
		h := graph.New(g.Order())
		for _, e := range g.Edges() {
			h.AddEdge(perm[e.U], perm[e.V])
		}
		jobs = append(jobs, qubo.MaxCut(h, nil))
	}
	// answer is every part of a solution that is not wall-clock time.
	type answer struct {
		Energy, SuccessProb   float64
		Binary                []int8
		Reads, Broken, Sorts  int
		Embedding             graph.VertexModel
		EmbedStats            embed.Stats
		Samples               *anneal.SampleSet
		CacheHit              bool
		QPUProgram, QPUAnneal time.Duration
	}
	summary := func(sol *core.Solution) answer {
		return answer{sol.Energy, sol.SuccessProb, sol.Binary, sol.Reads, sol.BrokenChains, sol.SortComparisons,
			sol.Embedding, sol.EmbedStats, sol.Samples, sol.Timing.CacheHit, sol.Timing.Program, sol.Timing.Execute}
	}
	refCache := core.NewEmbeddingCache()
	for i, q := range jobs {
		tk, err := svc.SubmitQUBO(q)
		if err != nil {
			t.Fatalf("SubmitQUBO %d: %v", i, err)
		}
		got, err := tk.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		cfg := testBase()
		cfg.Seed = parallel.DeriveSeed(seed, i)
		cfg.Cache = refCache
		want, err := core.NewSolver(cfg).SolveQUBO(q)
		if err != nil {
			t.Fatalf("fresh solve %d: %v", i, err)
		}
		if got.Timing.CacheHit != (i >= misses) {
			t.Errorf("job %d: cache hit %v, want %v", i, got.Timing.CacheHit, i >= misses)
		}
		if g, w := summary(got), summary(want); !reflect.DeepEqual(g, w) {
			t.Errorf("job %d: reused solver answered\n  %+v\nfresh solver\n  %+v", i, g, w)
		}
	}
	if rep := svc.Drain(); rep.Jobs != len(jobs) || rep.Failed != 0 {
		t.Fatalf("report: %d jobs, %d failed; want %d, 0", rep.Jobs, rep.Failed, len(jobs))
	}
}

// TestBackpressure: with one worker and a depth-1 queue, TrySubmit must
// refuse once the queue is full, and blocking Submit must still deliver.
func TestBackpressure(t *testing.T) {
	svc, err := New(Options{Workers: 1, QueueDepth: 1, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	profile := arch.JobProfile{QPUService: 60 * time.Millisecond}
	// Occupy the worker, then fill the queue.
	if _, err := svc.SubmitProfile(profile); err != nil {
		t.Fatalf("SubmitProfile: %v", err)
	}
	var accepted, refused int
	q := qubo.MaxCut(graph.Cycle(4), nil)
	deadline := time.Now().Add(2 * time.Second)
	for refused == 0 && time.Now().Before(deadline) {
		if _, err := svc.TrySubmitQUBO(q); err == nil {
			accepted++
		} else if errors.Is(err, ErrQueueFull) {
			refused++
		} else {
			t.Fatalf("TrySubmitQUBO: %v", err)
		}
	}
	if refused == 0 {
		t.Fatalf("TrySubmit never refused on a depth-1 queue (accepted %d)", accepted)
	}
	if accepted > 2 {
		t.Errorf("depth-1 queue accepted %d jobs before refusing", accepted)
	}
	// Blocking Submit applies backpressure but still gets through.
	tk, err := svc.SubmitQUBO(q)
	if err != nil {
		t.Fatalf("blocking SubmitQUBO: %v", err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("backpressured job failed: %v", err)
	}
	// Refused TrySubmits must not consume submission indices — the
	// per-job seed streams would otherwise depend on queue timing.
	if got, want := tk.Metrics().Index, accepted+1; got != want {
		t.Errorf("blocking submit got index %d, want %d (refusals must not burn indices)", got, want)
	}
	rep := svc.Drain()
	if want := accepted + 2; rep.Jobs != want {
		t.Errorf("report jobs = %d, want %d", rep.Jobs, want)
	}
	// After Drain the intake is closed.
	if _, err := svc.SubmitQUBO(q); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Drain: %v, want ErrClosed", err)
	}
	if _, err := svc.SubmitProfile(profile); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitProfile after Drain: %v, want ErrClosed", err)
	}
}

// TestMetrics sanity-checks the measurement ledger of a contended run.
func TestMetrics(t *testing.T) {
	svc, err := New(Options{Workers: 4, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p := arch.JobProfile{
		PreProcess:  2 * time.Millisecond,
		Network:     200 * time.Microsecond,
		QPUService:  5 * time.Millisecond,
		PostProcess: time.Millisecond,
	}
	const jobs = 8
	tickets := make([]*Ticket, jobs)
	for i := range tickets {
		if tickets[i], err = svc.SubmitProfile(p); err != nil {
			t.Fatalf("SubmitProfile: %v", err)
		}
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("profile job: %v", err)
		}
		m := tk.Metrics()
		if m.Index != i {
			t.Errorf("job %d: metrics index %d", i, m.Index)
		}
		if m.QPUHeld < p.QPUService {
			t.Errorf("job %d: QPUHeld %v < service time %v", m.Index, m.QPUHeld, p.QPUService)
		}
		if m.Total < m.QueueWait+m.Stage1+m.Stage2+m.Stage3 {
			t.Errorf("job %d: Total %v less than the sum of its parts", m.Index, m.Total)
		}
	}
	rep := svc.Drain()
	if rep.Jobs != jobs {
		t.Fatalf("report jobs = %d, want %d", rep.Jobs, jobs)
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput = %v, want > 0", rep.Throughput)
	}
	if len(rep.DeviceBusy) != 1 || rep.DeviceBusy[0] < jobs*p.QPUService {
		t.Errorf("device busy ledger %v, want >= %v", rep.DeviceBusy, jobs*p.QPUService)
	}
	if rep.QPUBusyFraction <= 0 || rep.QPUBusyFraction > 1.2 {
		t.Errorf("QPU busy fraction = %v, want in (0, ~1]", rep.QPUBusyFraction)
	}
	// 4 hosts contending for 1 device with QPU-heavy jobs must queue.
	if rep.QPUWaitMean == 0 {
		t.Errorf("no device contention measured on a 4-host/1-QPU run")
	}
}

// TestSubmitValidation covers the structural error paths.
func TestSubmitValidation(t *testing.T) {
	svc, err := New(Options{Workers: 1, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Drain()
	if _, err := svc.SubmitQUBO(nil); err == nil {
		t.Error("SubmitQUBO(nil) succeeded")
	}
	if _, err := svc.SubmitIsing(nil); err == nil {
		t.Error("SubmitIsing(nil) succeeded")
	}
	if _, err := svc.SubmitProfile(arch.JobProfile{PreProcess: -1}); err == nil {
		t.Error("SubmitProfile with negative phase succeeded")
	}
}

// TestSubmitIsing runs the Ising entry point end to end.
func TestSubmitIsing(t *testing.T) {
	svc, err := New(Options{Workers: 2, Fleet: 2, Base: testBase()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m := qubo.NewIsing(4)
	m.H[0] = 1
	m.SetCoupling(0, 1, -1)
	m.SetCoupling(1, 2, -1)
	m.SetCoupling(2, 3, 0.5)
	tk, err := svc.SubmitIsing(m)
	if err != nil {
		t.Fatalf("SubmitIsing: %v", err)
	}
	sol, err := tk.Wait()
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if len(sol.Spins) != 4 {
		t.Fatalf("spins = %v, want length 4", sol.Spins)
	}
	if got := m.Energy(sol.Spins); got != sol.Energy {
		t.Errorf("reported energy %v != recomputed %v", sol.Energy, got)
	}
	svc.Drain()
}
