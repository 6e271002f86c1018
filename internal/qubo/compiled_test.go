package qubo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/splitexec/splitexec/internal/graph"
)

func randomSpins(n int, rng *rand.Rand) []int8 {
	s := make([]int8, n)
	for i := range s {
		s[i] = int8(2*rng.Intn(2) - 1)
	}
	return s
}

func TestCompiledEnergyMatchesIsing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(20, 0.4, rng)
		m := RandomIsing(g, 1, 1, rng)
		m.Offset = rng.NormFloat64()
		c := Compile(m)
		for r := 0; r < 20; r++ {
			s := randomSpins(20, rng)
			want := m.Energy(s)
			if got := c.Energy(s); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: compiled energy %v, reference %v", trial, got, want)
			}
			fields := c.LocalFields(s, nil)
			if got := c.EnergyFromFields(s, fields); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: EnergyFromFields %v, reference %v", trial, got, want)
			}
		}
	}
}

func TestCompiledEnergyDeltaMatchesFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.GNP(16, 0.5, rng)
	m := RandomIsing(g, 1, 1, rng)
	c := Compile(m)
	for r := 0; r < 20; r++ {
		s := randomSpins(16, rng)
		base := m.Energy(s)
		for i := 0; i < 16; i++ {
			s[i] = -s[i]
			want := m.Energy(s) - base
			s[i] = -s[i]
			if got := c.EnergyDelta(s, i); math.Abs(got-want) > 1e-9 {
				t.Fatalf("spin %d: compiled delta %v, flip difference %v", i, got, want)
			}
			if got := m.EnergyDelta(s, i); math.Abs(got-want) > 1e-9 {
				t.Fatalf("spin %d: reference delta %v, flip difference %v", i, got, want)
			}
		}
	}
}

func TestCompiledLocalFieldAndAdjacency(t *testing.T) {
	m := NewIsing(5)
	m.H[0] = 0.5
	m.SetCoupling(0, 1, -1)
	m.SetCoupling(1, 2, 2)
	c := Compile(m)
	if c.Dim() != 5 {
		t.Fatalf("Dim = %d", c.Dim())
	}
	if c.Degree(1) != 2 || c.Degree(0) != 1 || c.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d %d", c.Degree(0), c.Degree(1), c.Degree(3))
	}
	// Active: 0 (bias+coupling), 1, 2 (couplings); 3, 4 frozen.
	if len(c.Active) != 3 {
		t.Fatalf("active = %v", c.Active)
	}
	s := []int8{1, -1, 1, 1, 1}
	// field(1) = J01·s0 + J12·s2 = -1·1 + 2·1 = 1.
	if f := c.LocalField(s, 1); math.Abs(f-1) > 1e-12 {
		t.Fatalf("LocalField(1) = %v", f)
	}
	// EnergyDelta(1) = -2·s1·field(1) = 2.
	if d := c.EnergyDelta(s, 1); math.Abs(d-2) > 1e-12 {
		t.Fatalf("EnergyDelta(1) = %v", d)
	}
}

func TestCompileIsImmutableSnapshot(t *testing.T) {
	m := NewIsing(3)
	m.SetCoupling(0, 1, -1)
	c := Compile(m)
	m.SetCoupling(0, 1, 5) // mutate source after compilation
	m.H[2] = 9
	s := []int8{1, 1, 1}
	if e := c.Energy(s); e != -1 {
		t.Fatalf("compiled energy changed with source model: %v", e)
	}
}

func TestCompileEmptyAndFrozenModels(t *testing.T) {
	c := Compile(NewIsing(0))
	if c.Dim() != 0 || len(c.Active) != 0 {
		t.Fatalf("empty compile: %+v", c)
	}
	// All-frozen model: no active spins, energy is the offset plus biases.
	m := NewIsing(4)
	m.Offset = 2.5
	c = Compile(m)
	if len(c.Active) != 0 {
		t.Fatalf("frozen model has active spins: %v", c.Active)
	}
	if e := c.Energy([]int8{1, 1, 1, 1}); e != 2.5 {
		t.Fatalf("frozen energy = %v", e)
	}
}

// FixedWidth must be a lossless re-layout: on bounded-degree graphs every
// padded row reproduces LocalField exactly (self-entries with zero
// coupling are arithmetic no-ops), and it must refuse — not truncate —
// graphs whose degree exceeds the cap.
func TestFixedWidthPadsLosslessly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Chimera{M: 3, N: 3, L: 4}.Graph() // interior cells reach degree 6
	m := RandomIsing(g, 1, 1, rng)
	c := Compile(m)
	if got := c.MaxDegree(); got != 6 {
		t.Fatalf("Chimera max degree %d, want 6", got)
	}
	cols, vals, width, ok := c.FixedWidth(8)
	if !ok || width != 6 {
		t.Fatalf("FixedWidth: ok=%v width=%d", ok, width)
	}
	if len(cols) != c.Dim()*width || len(vals) != len(cols) {
		t.Fatalf("layout: %d cols, %d vals, want %d", len(cols), len(vals), c.Dim()*width)
	}
	for trial := 0; trial < 10; trial++ {
		s := randomSpins(c.Dim(), rng)
		for i := 0; i < c.Dim(); i++ {
			f := c.H[i]
			for k := i * width; k < (i+1)*width; k++ {
				f += vals[k] * float64(s[cols[k]])
			}
			if want := c.LocalField(s, i); f != want {
				t.Fatalf("row %d: padded field %v, CSR %v", i, f, want)
			}
		}
	}
	// Padding entries must be (i, 0) self-references.
	for i := 0; i < c.Dim(); i++ {
		for k := i*width + c.Degree(i); k < (i+1)*width; k++ {
			if cols[k] != int32(i) || vals[k] != 0 {
				t.Fatalf("row %d pad slot %d: (%d, %v)", i, k, cols[k], vals[k])
			}
		}
	}
}

func TestFixedWidthRefusesHighDegree(t *testing.T) {
	m := NewIsing(10)
	for j := 1; j < 10; j++ {
		m.SetCoupling(0, j, 1) // star: hub degree 9
	}
	c := Compile(m)
	if got := c.MaxDegree(); got != 9 {
		t.Fatalf("max degree %d, want 9", got)
	}
	if cols, _, width, ok := c.FixedWidth(8); ok || cols != nil || width != 9 {
		t.Fatalf("FixedWidth accepted degree 9 under cap 8 (ok=%v width=%d)", ok, width)
	}
	if _, _, width, ok := c.FixedWidth(9); !ok || width != 9 {
		t.Fatalf("FixedWidth refused degree 9 under cap 9 (ok=%v width=%d)", ok, width)
	}
}

func TestFixedWidthEdgelessModel(t *testing.T) {
	m := NewIsing(3)
	m.H[1] = 2 // one active, zero-degree spin
	c := Compile(m)
	if got := c.MaxDegree(); got != 0 {
		t.Fatalf("max degree %d, want 0", got)
	}
	cols, vals, width, ok := c.FixedWidth(8)
	if !ok || width != 1 {
		t.Fatalf("edgeless: ok=%v width=%d, want a single no-op slot", ok, width)
	}
	for i := 0; i < 3; i++ {
		if cols[i] != int32(i) || vals[i] != 0 {
			t.Fatalf("row %d: (%d, %v), want self no-op", i, cols[i], vals[i])
		}
	}
}

// referenceCSR is the CSR compilation written the plain way, with a degree
// count and a fill cursor per row: the reference Recompile's in-place
// prefix sums must reproduce.
func referenceCSR(m *Ising) (rowPtr, col []int32, val []float64, active []int32) {
	n := m.Dim()
	deg := make([]int32, n)
	edges := m.Edges()
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	rowPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = rowPtr[i] + deg[i]
	}
	col, val = make([]int32, 2*len(edges)), make([]float64, 2*len(edges))
	fill := append([]int32(nil), rowPtr[:n]...)
	for _, e := range edges {
		col[fill[e.U]], val[fill[e.U]] = int32(e.V), m.J[e]
		fill[e.U]++
		col[fill[e.V]], val[fill[e.V]] = int32(e.U), m.J[e]
		fill[e.V]++
	}
	for i := 0; i < n; i++ {
		if m.H[i] != 0 || deg[i] > 0 {
			active = append(active, int32(i))
		}
	}
	return rowPtr, col, val, active
}

// TestRecompileMatchesCompile recompiles models of growing and shrinking
// dim into one Compiled: each result holds exactly the reference CSR, with
// nothing left over from the model before.
func TestRecompileMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sparse := RandomIsing(graph.GNP(40, 0.08, rng), 0, 1, rng) // isolated spins stay frozen
	dense := RandomIsing(graph.Complete(9), 0.5, 1, rng)
	dense.Offset = -3
	frozen := NewIsing(4)
	frozen.Offset = 2.5
	c := new(Compiled)
	for i, m := range []*Ising{sparse, dense, sparse, NewIsing(0), frozen, sparse} {
		c.Recompile(m)
		rowPtr, col, val, active := referenceCSR(m)
		if !slices.Equal(c.H, m.H) || c.Offset != m.Offset || !slices.Equal(c.RowPtr, rowPtr) ||
			!slices.Equal(c.Col, col) || !slices.Equal(c.Val, val) || !slices.Equal(c.Active, active) {
			t.Fatalf("model %d (dim %d): recompiled %+v, want RowPtr %v Col %v Val %v Active %v",
				i, m.Dim(), c, rowPtr, col, val, active)
		}
	}
}
