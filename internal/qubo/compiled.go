package qubo

import "slices"

// Compiled is a flat, read-only compilation of an Ising model for hot-loop
// consumption: CSR adjacency (RowPtr/Col/Val, each undirected coupling stored
// in both directions), the bias vector, and the list of active spins. It
// replaces the per-spin [][]int32/[][]float64 adjacency slices that the
// annealing samplers used to build independently, and carries the fast energy
// paths (local fields, incremental deltas) the compiled annealing kernel is
// built on. A Compiled value is read-only between compilations (Compile,
// Recompile) and then safe for concurrent use by any number of readers.
type Compiled struct {
	// H is the per-spin bias vector h_i; Offset the constant energy shift.
	H      []float64
	Offset float64

	// RowPtr/Col/Val is the CSR adjacency: the neighbors of spin i are
	// Col[RowPtr[i]:RowPtr[i+1]] with couplings Val[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int32
	Col    []int32
	Val    []float64

	// Active lists the spins that participate in the dynamics (nonzero bias
	// or at least one coupling); the rest are frozen, mirroring unused
	// physical qubits.
	Active []int32
}

// Compile flattens an Ising model into its CSR form. The source model is not
// retained; later mutations of it do not affect the compiled value.
func Compile(m *Ising) *Compiled {
	c := &Compiled{}
	c.Recompile(m)
	return c
}

// Recompile overwrites c with Compile(m), reusing c's slices where they are
// long enough, for a model of any dim. It breaks the immutability Compile
// promises: no reader of c may run during or across the call.
func (c *Compiled) Recompile(m *Ising) {
	n := m.Dim()
	edges := m.Edges()
	c.H = append(c.H[:0], m.H...)
	c.Offset = m.Offset
	// RowPtr[i+1] first counts row i's entries; the prefix sum turns
	// RowPtr[i] into row i's start.
	c.RowPtr = slices.Grow(c.RowPtr[:0], n+1)[:n+1]
	clear(c.RowPtr)
	for _, e := range edges {
		c.RowPtr[e.U+1]++
		c.RowPtr[e.V+1]++
	}
	for i := 0; i < n; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	c.Col = slices.Grow(c.Col[:0], 2*len(edges))[:2*len(edges)]
	c.Val = slices.Grow(c.Val[:0], 2*len(edges))[:2*len(edges)]
	// Filling advances RowPtr[i] from row i's start to its end, which is
	// row i+1's start: shifting by one restores the starts.
	for _, e := range edges {
		j := m.J[e]
		k := c.RowPtr[e.U]
		c.Col[k], c.Val[k] = int32(e.V), j
		c.RowPtr[e.U]++
		k = c.RowPtr[e.V]
		c.Col[k], c.Val[k] = int32(e.U), j
		c.RowPtr[e.V]++
	}
	copy(c.RowPtr[1:], c.RowPtr[:n])
	c.RowPtr[0] = 0
	c.Active = c.Active[:0]
	for i := 0; i < n; i++ {
		if c.H[i] != 0 || c.RowPtr[i+1] > c.RowPtr[i] {
			c.Active = append(c.Active, int32(i))
		}
	}
}

// Dim returns the number of spins.
func (c *Compiled) Dim() int { return len(c.H) }

// Degree returns the number of couplings incident to spin i.
func (c *Compiled) Degree(i int) int { return int(c.RowPtr[i+1] - c.RowPtr[i]) }

// MaxDegree returns the largest number of couplings incident to any spin
// (0 for edgeless models). Hardware working graphs are bounded-degree —
// Chimera couples each qubit to at most L+2 = 6 others — which is what makes
// the fixed-width adjacency form below viable.
func (c *Compiled) MaxDegree() int {
	maxDeg := 0
	for i := range c.H {
		if d := c.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// FixedWidth returns a padded row-major copy of the CSR adjacency: the
// neighbors of spin i are cols[i*width:(i+1)*width] with couplings at the
// same offsets in vals, short rows padded with (i, 0) self-entries that are
// arithmetic no-ops under both gather (adds ±0) and scatter (adds ±2·0).
// Every row then has the same constant trip count with no row-pointer
// loads, which is what the multi-spin annealing kernel's gather/scatter
// loops want on bounded-degree graphs. ok is false when the max degree
// exceeds maxWidth (the padding would outweigh the saved pointer chasing);
// callers fall back to the CSR form.
func (c *Compiled) FixedWidth(maxWidth int) (cols []int32, vals []float64, width int, ok bool) {
	width = c.MaxDegree()
	if width > maxWidth {
		return nil, nil, width, false
	}
	if width == 0 {
		width = 1 // degenerate edgeless model: one padded no-op per row
	}
	n := len(c.H)
	cols = make([]int32, n*width)
	vals = make([]float64, n*width)
	for i := 0; i < n; i++ {
		k := i * width
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			cols[k] = c.Col[p]
			vals[k] = c.Val[p]
			k++
		}
		for ; k < (i+1)*width; k++ {
			cols[k] = int32(i)
		}
	}
	return cols, vals, width, true
}

// LocalField returns h_i + Σ_j J_ij·s_j, the effective field on spin i.
func (c *Compiled) LocalField(s []int8, i int) float64 {
	f := c.H[i]
	for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
		f += c.Val[k] * float64(s[c.Col[k]])
	}
	return f
}

// LocalFields fills dst (grown if needed) with the local field of every spin
// and returns it. This is the O(|E|) initialization of the incremental
// kernel; afterwards fields are maintained per accepted flip.
func (c *Compiled) LocalFields(s []int8, dst []float64) []float64 {
	n := len(c.H)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = c.LocalField(s, i)
	}
	return dst
}

// EnergyFromFields evaluates E(s) given precomputed local fields, using
// E = Offset + ½ Σ_i s_i·(h_i + field_i); each coupling contributes to two
// fields, so the halved sum counts it exactly once.
func (c *Compiled) EnergyFromFields(s []int8, fields []float64) float64 {
	e := 0.0
	for i, f := range fields {
		e += float64(s[i]) * (c.H[i] + f)
	}
	return c.Offset + 0.5*e
}

// Energy evaluates E(s) from the flat CSR form — the allocation-free fast
// path equivalent to Ising.Energy (which walks the coupling map).
func (c *Compiled) Energy(s []int8) float64 {
	e := c.Offset
	for i, h := range c.H {
		si := float64(s[i])
		f := 0.0
		for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
			f += c.Val[k] * float64(s[c.Col[k]])
		}
		e += si * (h + 0.5*f)
	}
	return e
}

// EnergyDelta returns E(s with spin i flipped) − E(s) in O(deg(i)).
func (c *Compiled) EnergyDelta(s []int8, i int) float64 {
	return -2 * float64(s[i]) * c.LocalField(s, i)
}
