package control

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

func TestICEPerturbChangesModel(t *testing.T) {
	m := ringIsing(8)
	orig := m.Clone()
	rng := rand.New(rand.NewSource(1))
	maxAbs := DW2ICE().Perturb(m, rng)
	if maxAbs <= 0 {
		t.Fatalf("maxAbs = %v", maxAbs)
	}
	changed := false
	for i := range m.H {
		if m.H[i] != orig.H[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("no bias changed")
	}
}

func TestICEPerturbMaxAbsIsMax(t *testing.T) {
	m := ringIsing(6)
	orig := m.Clone()
	rng := rand.New(rand.NewSource(3))
	maxAbs := DW2ICE().Perturb(m, rng)
	seen := 0.0
	for i := range m.H {
		if d := math.Abs(m.H[i] - orig.H[i]); d > seen {
			seen = d
		}
	}
	for _, e := range m.Edges() {
		if d := math.Abs(m.Coupling(e.U, e.V) - orig.Coupling(e.U, e.V)); d > seen {
			seen = d
		}
	}
	if math.Abs(seen-maxAbs) > 1e-12 {
		t.Fatalf("reported max %v, observed %v", maxAbs, seen)
	}
}

func TestICEZeroSigmaOffsetOnly(t *testing.T) {
	m := ringIsing(4)
	orig := m.Clone()
	n := ICE{HOffset: 0.1, JOffset: -0.2}
	rng := rand.New(rand.NewSource(5))
	n.Perturb(m, rng)
	for i := range m.H {
		if math.Abs(m.H[i]-(orig.H[i]+0.1)) > 1e-12 {
			t.Fatalf("bias %d: %v, want %v", i, m.H[i], orig.H[i]+0.1)
		}
	}
	for _, e := range m.Edges() {
		want := orig.Coupling(e.U, e.V) - 0.2
		if math.Abs(m.Coupling(e.U, e.V)-want) > 1e-12 {
			t.Fatalf("coupling %v: %v, want %v", e, m.Coupling(e.U, e.V), want)
		}
	}
}

func TestGroundStateStabilityNoiseless(t *testing.T) {
	m := ringIsing(6)
	rng := rand.New(rand.NewSource(11))
	st, err := ICE{}.GroundStateStability(m, 10, 1e-9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if st.PreservationRate() != 1 {
		t.Fatalf("noiseless preservation = %v, want 1", st.PreservationRate())
	}
	if st.MeanShift != 0 {
		t.Fatalf("noiseless shift = %v", st.MeanShift)
	}
}

func TestGroundStateStabilityDegradesWithNoise(t *testing.T) {
	// A near-degenerate instance: tiny field difference decides the ground
	// state, so strong disorder flips it often.
	m := qubo.NewIsing(4)
	m.H[0] = 0.02
	for i := 0; i < 3; i++ {
		m.SetCoupling(i, i+1, -1)
	}
	rng := rand.New(rand.NewSource(23))
	weak, err := ICE{HSigma: 0.001, JSigma: 0.001}.GroundStateStability(m, 60, 1e-9, rng)
	if err != nil {
		t.Fatal(err)
	}
	strong, err := ICE{HSigma: 0.5, JSigma: 0.5}.GroundStateStability(m, 60, 1e-9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if weak.PreservationRate() <= strong.PreservationRate() {
		t.Fatalf("weak noise (%v) should preserve more than strong (%v)",
			weak.PreservationRate(), strong.PreservationRate())
	}
	if strong.MeanShift <= weak.MeanShift {
		t.Fatalf("strong noise should shift energy more: %v <= %v", strong.MeanShift, weak.MeanShift)
	}
}

func TestGroundStateStabilityRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := DW2ICE().GroundStateStability(qubo.NewIsing(25), 5, 1e-9, rng); err == nil {
		t.Fatal("oversized model accepted")
	}
	if _, err := DW2ICE().GroundStateStability(ringIsing(4), 0, 1e-9, rng); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestGroundStatePreservedSymmetricPair(t *testing.T) {
	// Ferromagnetic ring: both all-up and all-down are ground states; a
	// clone must be judged preserved through either.
	m := qubo.NewIsing(4)
	for i := 0; i < 4; i++ {
		m.SetCoupling(i, (i+1)%4, -1)
	}
	if !GroundStatePreserved(m, m.Clone(), 1e-9) {
		t.Fatal("identical degenerate models judged different")
	}
}

func TestGroundStatePreservedDetectsFlip(t *testing.T) {
	a := qubo.NewIsing(2)
	a.H[0], a.H[1] = 1, 1 // ground: both -1
	b := qubo.NewIsing(2)
	b.H[0], b.H[1] = -1, -1 // ground: both +1
	if GroundStatePreserved(a, b, 1e-9) {
		t.Fatal("opposite models judged preserved")
	}
}

func TestCalibrateBasics(t *testing.T) {
	hw := graph.Vesuvius().Graph()
	rng := rand.New(rand.NewSource(42))
	fm, rep, err := Calibrate(hw, DefaultCalibration(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QubitsTested != hw.Order() || rep.CouplersTested != hw.Size() {
		t.Fatalf("tested %d/%d, want %d/%d", rep.QubitsTested, rep.CouplersTested, hw.Order(), hw.Size())
	}
	if rep.DeadQubits != len(fm.DeadQubits) || rep.DeadCouplers != len(fm.DeadCouplers) {
		t.Fatal("report counts disagree with fault model")
	}
	wantDur := time.Duration(hw.Order()+hw.Size()) * time.Millisecond
	if rep.Duration != wantDur {
		t.Fatalf("Duration %v, want %v", rep.Duration, wantDur)
	}
	if rep.Yield <= 0.9 || rep.Yield > 1 {
		t.Fatalf("Yield %v implausible for 2%% fault rate", rep.Yield)
	}
	if fm.Yield(hw.Order()) != rep.Yield {
		t.Fatalf("report yield %v, fault model yield %v", rep.Yield, fm.Yield(hw.Order()))
	}
	// The working graph loses exactly the dead couplers plus edges of dead
	// qubits.
	working := fm.Apply(hw)
	if working.Size() >= hw.Size() && rep.DeadQubits+rep.DeadCouplers > 0 {
		t.Fatal("faults did not reduce the working graph")
	}
}

func TestCalibrateZeroRatesPerfectYield(t *testing.T) {
	hw := graph.Complete(10)
	rng := rand.New(rand.NewSource(1))
	fm, rep, err := Calibrate(hw, CalibrationOptions{QubitTest: time.Millisecond, CouplerTest: time.Millisecond}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.DeadQubits) != 0 || len(fm.DeadCouplers) != 0 {
		t.Fatal("zero-rate calibration found faults")
	}
	if rep.Yield != 1 {
		t.Fatalf("Yield %v, want 1", rep.Yield)
	}
}

func TestCalibrateRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := Calibrate(nil, DefaultCalibration(), rng); err == nil {
		t.Fatal("nil hardware accepted")
	}
	if _, _, err := Calibrate(graph.New(0), DefaultCalibration(), rng); err == nil {
		t.Fatal("empty hardware accepted")
	}
	bad := DefaultCalibration()
	bad.QubitRate = 1.5
	if _, _, err := Calibrate(graph.Complete(4), bad, rng); err == nil {
		t.Fatal("bad rate accepted")
	}
}
