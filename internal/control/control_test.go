package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/qubo"
)

func ringIsing(n int) *qubo.Ising {
	m := qubo.NewIsing(n)
	for i := 0; i < n; i++ {
		m.H[i] = 0.3 * float64(i%3-1)
		m.SetCoupling(i, (i+1)%n, -0.8)
	}
	return m
}

func TestSequenceTotalsMatchPaper(t *testing.T) {
	seq := Sequence(anneal.DW2Timings())
	if len(seq) != int(numPhases) {
		t.Fatalf("got %d phases, want %d", len(seq), numPhases)
	}
	var total time.Duration
	for i, p := range seq {
		if p.Phase != Phase(i) {
			t.Fatalf("phase %d out of order: %v", i, p.Phase)
		}
		total += p.Duration
	}
	// The paper's ProcessorInitialize constant: 319,573 µs.
	if want := 319573 * time.Microsecond; total != want {
		t.Fatalf("sequence total %v, want %v", total, want)
	}
	if total != anneal.DW2Timings().ProcessorInitialize() {
		t.Fatal("sequence total disagrees with Timings.ProcessorInitialize")
	}
}

func TestPhaseString(t *testing.T) {
	names := map[Phase]string{
		PhaseStateCon: "StateCon",
		PhasePMMChip:  "PMMChip",
		PhaseElecRun:  "ElecRun",
	}
	for p, want := range names {
		if got := p.String(); got != want {
			t.Errorf("Phase %d = %q, want %q", p, got, want)
		}
	}
	if got := Phase(200).String(); got != "Phase(200)" {
		t.Errorf("unknown phase = %q", got)
	}
}

func TestDACValidate(t *testing.T) {
	if err := DW2DAC().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []DAC{
		{Bits: 0, HRange: 1, JRange: 1},
		{Bits: 63, HRange: 1, JRange: 1},
		{Bits: 4, HRange: 0, JRange: 1},
		{Bits: 4, HRange: 1, JRange: -1},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("DAC %+v accepted", d)
		}
	}
}

func TestDACStep(t *testing.T) {
	d := DAC{Bits: 2, HRange: 1, JRange: 1}
	// 2 bits → 3 intervals over [-1,1] → step 2/3.
	if got, want := d.Step(1), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Step = %v, want %v", got, want)
	}
}

func TestDACApplyErrorBounded(t *testing.T) {
	m := ringIsing(8)
	d := DW2DAC()
	maxErr := d.Apply(m)
	// Error is at most half the coarser step.
	bound := math.Max(d.Step(d.HRange), d.Step(d.JRange))/2 + 1e-12
	if maxErr > bound {
		t.Fatalf("maxErr %v exceeds half-step bound %v", maxErr, bound)
	}
	// All realized values sit on their grids.
	for _, h := range m.H {
		if r := math.Mod(h+d.HRange, d.Step(d.HRange)); math.Abs(r) > 1e-9 && math.Abs(r-d.Step(d.HRange)) > 1e-9 {
			t.Fatalf("bias %v off grid", h)
		}
	}
}

func TestDACApplyClampsOutOfRange(t *testing.T) {
	m := qubo.NewIsing(2)
	m.H[0] = 100
	m.SetCoupling(0, 1, -50)
	d := DW2DAC()
	d.Apply(m)
	if m.H[0] > d.HRange+1e-9 {
		t.Fatalf("bias %v not clamped to %v", m.H[0], d.HRange)
	}
	if math.Abs(m.Coupling(0, 1)) > d.JRange+1e-9 {
		t.Fatalf("coupling %v not clamped to %v", m.Coupling(0, 1), d.JRange)
	}
}

func TestHighPrecisionDACIsLossless(t *testing.T) {
	m := ringIsing(6)
	orig := m.Clone()
	d := DAC{Bits: 40, HRange: 2, JRange: 1}
	maxErr := d.Apply(m)
	if maxErr > 1e-9 {
		t.Fatalf("40-bit DAC error %v", maxErr)
	}
	if !GroundStatePreserved(orig, m, 1e-9) {
		t.Fatal("ground state lost at 40 bits")
	}
}

func TestRequiredBits(t *testing.T) {
	// Resolving [-1,1] to step ≤ 0.1 needs ceil(log2(21)) = 5 bits.
	bits, err := RequiredBits(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 5 {
		t.Fatalf("RequiredBits(1, 0.1) = %d, want 5", bits)
	}
	d := DAC{Bits: bits, HRange: 1, JRange: 1}
	if d.Step(1) > 0.1+1e-12 {
		t.Fatalf("claimed bits give step %v > 0.1", d.Step(1))
	}
	// Coarse resolution needs only the minimum.
	bits, err = RequiredBits(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if bits != 1 {
		t.Fatalf("coarse RequiredBits = %d, want 1", bits)
	}
	if _, err := RequiredBits(0, 0.1); err == nil {
		t.Fatal("zero range accepted")
	}
	if _, err := RequiredBits(1, 0); err == nil {
		t.Fatal("zero resolution accepted")
	}
}

func TestRequiredBitsSufficiency(t *testing.T) {
	// Property: the returned bit count always achieves the requested step.
	f := func(rQ, resQ uint8) bool {
		r := 0.5 + float64(rQ)/64
		res := 0.01 + float64(resQ)/512
		bits, err := RequiredBits(r, res)
		if err != nil {
			return false
		}
		if bits > 62 {
			return false
		}
		d := DAC{Bits: bits, HRange: r, JRange: r}
		return d.Step(r) <= res+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerProgramBasics(t *testing.T) {
	c := NewController()
	if c.DAC != DW2DAC() {
		t.Fatalf("NewController DAC = %+v, want DW2DAC", c.DAC)
	}
	m := ringIsing(8)
	res, err := c.Program(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescale != 1 {
		t.Fatalf("in-range model rescaled by %v", res.Rescale)
	}
	if res.Total != anneal.DW2Timings().ProcessorInitialize() {
		t.Fatalf("Total %v, want ProcessorInitialize", res.Total)
	}
	if res.NoiseApplied {
		t.Fatal("noise applied without configuration")
	}
	if res.Realized == m {
		t.Fatal("Program mutated the intended model instead of cloning")
	}
	// Intended model untouched.
	if m.H[0] != 0.3*float64(0%3-1) {
		t.Fatal("intended model mutated")
	}
}

func TestControllerProgramRescales(t *testing.T) {
	c := NewController()
	m := qubo.NewIsing(3)
	m.H[0] = 8 // 4× the DW2 h-range
	m.SetCoupling(0, 1, -4)
	m.SetCoupling(1, 2, 2)
	res, err := c.Program(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescale >= 1 {
		t.Fatalf("out-of-range model not rescaled: %v", res.Rescale)
	}
	d := c.DAC
	for _, h := range res.Realized.H {
		if math.Abs(h) > d.HRange+1e-9 {
			t.Fatalf("realized bias %v out of range", h)
		}
	}
	for _, e := range res.Realized.Edges() {
		if j := res.Realized.Coupling(e.U, e.V); math.Abs(j) > d.JRange+1e-9 {
			t.Fatalf("realized coupling %v out of range", j)
		}
	}
	// Rescaling preserves the ground state (it is an energy-scale change).
	scaled := m.Clone()
	for i := range scaled.H {
		scaled.H[i] *= res.Rescale
	}
	for _, e := range scaled.Edges() {
		scaled.SetCoupling(e.U, e.V, scaled.Coupling(e.U, e.V)*res.Rescale)
	}
	if !GroundStatePreserved(m, scaled, 1e-9) {
		t.Fatal("pure rescale changed the ground state")
	}
}

func TestControllerProgramErrors(t *testing.T) {
	c := NewController()
	if _, err := c.Program(nil, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := c.Program(qubo.NewIsing(0), nil); err == nil {
		t.Fatal("empty model accepted")
	}
	c.DAC.Bits = 0
	if _, err := c.Program(ringIsing(4), nil); err == nil {
		t.Fatal("invalid DAC accepted")
	}
	c = NewController()
	n := DW2ICE()
	c.Noise = &n
	if _, err := c.Program(ringIsing(4), nil); err == nil {
		t.Fatal("ICE without rng accepted")
	}
}

func TestControllerProgramWithNoise(t *testing.T) {
	c := NewController()
	c.DAC.Bits = 30 // make quantization negligible so drift is ICE-only
	n := ICE{HSigma: 0.01, JSigma: 0.01}
	c.Noise = &n
	rng := rand.New(rand.NewSource(7))
	m := ringIsing(8)
	res, err := c.Program(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoiseApplied {
		t.Fatal("noise not applied")
	}
	drift := 0.0
	for i := range m.H {
		drift += math.Abs(res.Realized.H[i] - m.H[i])
	}
	if drift == 0 {
		t.Fatal("ICE produced no drift")
	}
}

func TestCoarseDACBreaksGroundState(t *testing.T) {
	// A model whose ground state depends on a small coefficient difference
	// must lose it under a 1-bit DAC but keep it at high precision — the
	// paper's "substantively different from the intended logical input".
	m := qubo.NewIsing(2)
	m.H[0] = 0.30
	m.H[1] = -0.25
	m.SetCoupling(0, 1, 0.45)
	fine := m.Clone()
	(&DAC{Bits: 30, HRange: 2, JRange: 1}).Apply(fine)
	if !GroundStatePreserved(m, fine, 1e-9) {
		t.Fatal("fine DAC lost the ground state")
	}
	coarse := m.Clone()
	(&DAC{Bits: 1, HRange: 2, JRange: 1}).Apply(coarse)
	// 1 bit maps every coefficient to ±range: the model collapses.
	if got := coarse.H[0]; got != 2 && got != -2 {
		t.Fatalf("1-bit bias = %v, want ±2", got)
	}
}
