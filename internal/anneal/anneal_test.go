package anneal

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

func ferroChain(n int) *qubo.Ising {
	m := qubo.NewIsing(n)
	for i := 0; i+1 < n; i++ {
		m.SetCoupling(i, i+1, -1) // ferromagnetic: aligned spins favored
	}
	return m
}

func TestSamplerFindsFerromagneticGround(t *testing.T) {
	m := ferroChain(10)
	s := NewSampler(m, SamplerOptions{Sweeps: 128})
	rng := rand.New(rand.NewSource(1))
	spins, e := s.Anneal(rng)
	if e != -9 {
		t.Fatalf("energy = %v, want -9 (all aligned)", e)
	}
	for i := 1; i < 10; i++ {
		if spins[i] != spins[0] {
			t.Fatalf("spins not aligned: %v", spins)
		}
	}
}

func TestSamplerMatchesBruteForceSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		g := graph.GNP(8, 0.5, rng)
		m := qubo.RandomIsing(g, 1, 1, rng)
		_, want := m.BruteForce()
		s := NewSampler(m, SamplerOptions{Sweeps: 256})
		best := math.Inf(1)
		for r := 0; r < 20; r++ {
			if _, e := s.Anneal(rng); e < best {
				best = e
			}
		}
		if math.Abs(best-want) > 1e-9 {
			t.Errorf("trial %d: best sampled %v, exact %v", trial, best, want)
		}
	}
}

func TestSamplerRespectsInactiveSpins(t *testing.T) {
	m := qubo.NewIsing(6)
	m.SetCoupling(0, 1, -1)
	// Spins 2..5 have no bias/couplings: frozen at +1.
	s := NewSampler(m, SamplerOptions{})
	if s.ActiveSpins() != 2 {
		t.Fatalf("active spins = %d, want 2", s.ActiveSpins())
	}
	rng := rand.New(rand.NewSource(3))
	spins, _ := s.Anneal(rng)
	for i := 2; i < 6; i++ {
		if spins[i] != 1 {
			t.Fatalf("inactive spin %d = %d", i, spins[i])
		}
	}
}

func TestSamplerDeterministicForSeed(t *testing.T) {
	m := ferroChain(8)
	s := NewSampler(m, SamplerOptions{Sweeps: 32})
	s1, e1 := s.Anneal(rand.New(rand.NewSource(7)))
	s2, e2 := s.Anneal(rand.New(rand.NewSource(7)))
	if e1 != e2 {
		t.Fatalf("energies differ: %v vs %v", e1, e2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("states differ for same seed")
		}
	}
}

func TestAnnealFromPanicsOnBadLength(t *testing.T) {
	s := NewSampler(ferroChain(4), SamplerOptions{})
	defer func() {
		if recover() == nil {
			t.Error("bad length did not panic")
		}
	}()
	s.AnnealFrom(make([]int8, 3), rand.New(rand.NewSource(1)))
}

func TestAnnealFromImproves(t *testing.T) {
	m := ferroChain(12)
	s := NewSampler(m, SamplerOptions{Sweeps: 128})
	spins := make([]int8, 12)
	for i := range spins {
		spins[i] = int8(2*(i%2) - 1) // worst case: alternating
	}
	start := m.Energy(spins)
	end := s.AnnealFrom(spins, rand.New(rand.NewSource(4)))
	if end >= start {
		t.Errorf("anneal did not improve: %v -> %v", start, end)
	}
}

func TestSampleSetBasics(t *testing.T) {
	ss := NewSampleSet(2)
	ss.Add([]int8{1, 1}, 3)
	ss.Add([]int8{-1, 1}, -1)
	ss.Add([]int8{1, -1}, 2)
	if ss.Len() != 3 {
		t.Fatalf("Len = %d", ss.Len())
	}
	if b := ss.Best(); b.Energy != -1 || b.Spins[0] != -1 {
		t.Errorf("Best = %+v", b)
	}
	comps := ss.SortByEnergy()
	if comps <= 0 {
		t.Error("sort counted no comparisons")
	}
	es := ss.Energies()
	if !sort.Float64sAreSorted(es) {
		t.Errorf("not sorted: %v", es)
	}
	if b := ss.Best(); b.Energy != -1 {
		t.Errorf("Best after sort = %+v", b)
	}
}

func TestSampleSetAddPanicsOnDim(t *testing.T) {
	ss := NewSampleSet(2)
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	ss.Add([]int8{1}, 0)
}

func TestSampleSetBestPanicsEmpty(t *testing.T) {
	ss := NewSampleSet(1)
	defer func() {
		if recover() == nil {
			t.Error("empty Best did not panic")
		}
	}()
	ss.Best()
}

func TestSampleSetMultiplicityAndSuccess(t *testing.T) {
	ss := NewSampleSet(1)
	ss.Add([]int8{1}, -2)
	ss.Add([]int8{1}, -2)
	ss.Add([]int8{-1}, 0)
	ss.Add([]int8{-1}, 1)
	if m := ss.Multiplicity(1e-9); m != 2 {
		t.Errorf("multiplicity = %d, want 2", m)
	}
	if r := ss.SuccessRate(-2, 1e-9); r != 0.5 {
		t.Errorf("success rate = %v, want 0.5", r)
	}
	if r := ss.SuccessRate(-5, 1e-9); r != 0 {
		t.Errorf("unreachable ground success = %v", r)
	}
}

func TestSampleSetMerge(t *testing.T) {
	a := NewSampleSet(1)
	a.Add([]int8{1}, 1)
	b := NewSampleSet(1)
	b.Add([]int8{-1}, -1)
	a.Merge(b)
	if a.Len() != 2 || a.Best().Energy != -1 {
		t.Errorf("merge wrong: %+v", a)
	}
	c := NewSampleSet(2)
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch merge did not panic")
		}
	}()
	a.Merge(c)
}

func TestSampleSetAddCopies(t *testing.T) {
	ss := NewSampleSet(2)
	spins := []int8{1, -1}
	ss.Add(spins, 0)
	spins[0] = -1
	if ss.Samples[0].Spins[0] != 1 {
		t.Error("Add did not copy the spin slice")
	}
}

func TestDW2TimingsPaperConstants(t *testing.T) {
	tm := DW2Timings()
	// 252162+33095+0+11264+10000+4000+9052 = 319573 µs.
	want := 319573 * time.Microsecond
	if got := tm.ProcessorInitialize(); got != want {
		t.Errorf("ProcessorInitialize = %v, want %v", got, want)
	}
	if tm.AnnealTime != 20*time.Microsecond {
		t.Errorf("anneal time = %v", tm.AnnealTime)
	}
	// One call with 100 reads: 100·20 + 320 + 5 = 2325 µs.
	if got := tm.ExecutionTime(100); got != 2325*time.Microsecond {
		t.Errorf("ExecutionTime(100) = %v", got)
	}
}

func TestRequiredReadsEq6(t *testing.T) {
	// Paper Fig. 9(b) parameters: ps = 0.7.
	cases := []struct {
		pa   float64
		want int
	}{
		{0.9, 2},    // log(0.1)/log(0.3) = 1.91 -> 2
		{0.99, 4},   // log(0.01)/log(0.3) = 3.82 -> 4
		{0.999, 6},  // 5.74 -> 6
		{0.9999, 8}, // 7.65 -> 8
		{0, 0},
	}
	for _, c := range cases {
		got, err := RequiredReads(c.pa, 0.7)
		if err != nil {
			t.Fatalf("pa=%v: %v", c.pa, err)
		}
		if got != c.want {
			t.Errorf("RequiredReads(%v, 0.7) = %d, want %d", c.pa, got, c.want)
		}
	}
}

func TestRequiredReadsStage3Constants(t *testing.T) {
	// Fig. 8: Results = ceil(log(1-0.99)/log(1-0.75)) = 4.
	got, err := RequiredReads(0.99, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Errorf("stage-3 Results = %d, want 4", got)
	}
}

func TestRequiredReadsValidation(t *testing.T) {
	if _, err := RequiredReads(0.9, 0); err == nil {
		t.Error("ps=0 accepted")
	}
	if _, err := RequiredReads(0.9, 1); err == nil {
		t.Error("ps=1 accepted")
	}
	if _, err := RequiredReads(1, 0.5); err == nil {
		t.Error("pa=1 accepted")
	}
	if _, err := RequiredReads(-0.1, 0.5); err == nil {
		t.Error("pa<0 accepted")
	}
}

func TestAchievedAccuracyInvertsEq6(t *testing.T) {
	for _, pa := range []float64{0.5, 0.9, 0.99, 0.9999} {
		s, err := RequiredReads(pa, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if got := AchievedAccuracy(s, 0.7); got < pa {
			t.Errorf("AchievedAccuracy(%d) = %v < target %v", s, got, pa)
		}
	}
	if AchievedAccuracy(0, 0.7) != 0 {
		t.Error("zero reads should achieve zero accuracy")
	}
}

// The paper's Fig. 9(b) observation: the stage-2 curve is approximately the
// same for all ps > 0.6 because so few repetitions are needed.
func TestStage2InsensitiveToHighPS(t *testing.T) {
	tm := DW2Timings()
	for _, pa := range []float64{0.9, 0.99, 0.999} {
		var times []time.Duration
		for _, ps := range []float64{0.65, 0.7, 0.8, 0.9} {
			s, err := RequiredReads(pa, ps)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, tm.ExecutionTime(s))
		}
		for _, d := range times {
			// All within 200 µs of each other (a handful of 20 µs anneals).
			if diff := d - times[0]; diff > 200*time.Microsecond || diff < -200*time.Microsecond {
				t.Errorf("pa=%v: stage-2 times vary too much: %v", pa, times)
			}
		}
	}
}

func TestDeviceLifecycle(t *testing.T) {
	d := NewDevice(DW2Timings(), SamplerOptions{Sweeps: 32})
	if d.Programmed() {
		t.Error("new device claims program")
	}
	if _, err := d.Execute(1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Execute before Program succeeded")
	}
	d.Program(ferroChain(6))
	if !d.Programmed() {
		t.Error("device not programmed")
	}
	set, err := d.Execute(10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 10 {
		t.Errorf("reads = %d", set.Len())
	}
	prog, exec := d.QPUTime()
	if prog != DW2Timings().ProcessorInitialize() {
		t.Errorf("programming time = %v", prog)
	}
	if exec != DW2Timings().ExecutionTime(10) {
		t.Errorf("execution time = %v", exec)
	}
	if d.TotalReads() != 10 {
		t.Errorf("total reads = %d", d.TotalReads())
	}
	d.Reset()
	if d.Programmed() || d.TotalReads() != 0 {
		t.Error("reset incomplete")
	}
}

// TestDeviceReprogramMatchesFreshDevice programs one device with models of
// different dims and edge counts in the order A, B, A. Each program must
// return the same SampleSet for a given seed as a freshly built device,
// serially and across read workers, on the scalar and the multi-spin
// kernel.
func TestDeviceReprogramMatchesFreshDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	hw := graph.Chimera{M: 2, N: 2, L: 4}.Graph()
	hw.RemoveVertex(3) // a dead qubit: spin 3 is frozen
	a := qubo.RandomIsing(hw, 0.5, 1, rng)
	a.H[3] = 0
	b := qubo.RandomIsing(graph.Complete(9), 1, 1, rng)
	for _, opts := range []SamplerOptions{{Sweeps: 16}, {Sweeps: 24, BitParallel: true}} {
		for _, workers := range []int{1, 3} {
			d := NewDevice(DW2Timings(), opts)
			d.Workers = workers
			for i, m := range []*qubo.Ising{a, b, a} {
				d.Program(m)
				got, err := d.Execute(5, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					t.Fatal(err)
				}
				fresh := NewDevice(DW2Timings(), opts)
				fresh.Workers = workers
				fresh.Program(m)
				want, err := fresh.Execute(5, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v, %d workers, program %d: reprogrammed device read %v, fresh device %v", opts, workers, i, got, want)
				}
			}
		}
	}
}

func TestDeviceExecuteValidatesReads(t *testing.T) {
	d := NewDevice(DW2Timings(), SamplerOptions{})
	d.Program(ferroChain(2))
	if _, err := d.Execute(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("reads=0 accepted")
	}
}

// Empirical check that the annealer behaves like the paper's probabilistic
// processor: success rate over many reads is strictly between 0 and 1 for a
// frustrated model at low sweep counts, and improves with more sweeps.
func TestSamplerSuccessProbabilityBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.Complete(7)
	m := qubo.RandomIsing(g, 1, 1, rng)
	_, ground := m.BruteForce()

	rate := func(sweeps, reads int) float64 {
		s := NewSampler(m, SamplerOptions{Sweeps: sweeps})
		set := s.Sample(reads, rng)
		return set.SuccessRate(ground, 1e-9)
	}
	fast := rate(2, 200)
	slow := rate(128, 200)
	if slow < fast {
		t.Errorf("more sweeps lowered success rate: %v -> %v", fast, slow)
	}
	if slow == 0 {
		t.Error("128-sweep annealer never found ground state of a 7-spin model")
	}
}
