package qubo

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/splitexec/splitexec/internal/graph"
)

// Ising is a logical Ising model over spins s ∈ {-1,+1}^n with energy
//
//	E(s) = Offset + Σ_i H[i]·s_i + Σ_{i<j} J[{i,j}]·s_i·s_j.
//
// The paper's Hamiltonian (Eq. 2) carries explicit minus signs,
// H = -Σ h_i Z_i - Σ J_ij Z_i Z_j; we fold those signs into the stored
// coefficients so that *minimizing* E(s) solves the optimization problem,
// the convention used when programming the processor. The Offset preserves
// the exact QUBO energy under translation so solutions can be compared
// directly across domains.
type Ising struct {
	H      []float64              // per-spin biases h_i
	J      map[graph.Edge]float64 // couplings J_ij, keys normalized (U<V)
	Offset float64                // constant energy shift from the QUBO map
}

// NewIsing returns an all-zero Ising model over n spins.
func NewIsing(n int) *Ising {
	return &Ising{H: make([]float64, n), J: make(map[graph.Edge]float64)}
}

// Dim returns the number of spins.
func (is *Ising) Dim() int { return len(is.H) }

// SetCoupling assigns J_ij (order-insensitive, self couplings rejected).
func (is *Ising) SetCoupling(i, j int, c float64) {
	if i == j {
		panic("qubo: self coupling")
	}
	e := graph.Edge{U: i, V: j}.Normalize()
	if c == 0 {
		delete(is.J, e)
		return
	}
	is.J[e] = c
}

// Coupling returns J_ij (0 when absent).
func (is *Ising) Coupling(i, j int) float64 {
	return is.J[graph.Edge{U: i, V: j}.Normalize()]
}

// Energy evaluates E(s) for s_i ∈ {-1,+1}.
func (is *Ising) Energy(s []int8) float64 {
	if len(s) != len(is.H) {
		panic(fmt.Sprintf("qubo: spin vector length %d != n %d", len(s), len(is.H)))
	}
	e := is.Offset
	for i, h := range is.H {
		e += h * float64(s[i])
	}
	for edge, j := range is.J {
		e += j * float64(s[edge.U]) * float64(s[edge.V])
	}
	return e
}

// EnergyDelta returns E(s with spin i flipped) − E(s). This is the reference
// implementation (it walks the coupling map, O(|J|)); hot paths use the
// equivalent Compiled.EnergyDelta, which is O(deg(i)) over the CSR form.
func (is *Ising) EnergyDelta(s []int8, i int) float64 {
	local := is.H[i]
	for e, j := range is.J {
		switch i {
		case e.U:
			local += j * float64(s[e.V])
		case e.V:
			local += j * float64(s[e.U])
		}
	}
	return -2 * float64(s[i]) * local
}

// Graph returns the coupling graph of the model (the logical input graph G
// of the embedding problem).
func (is *Ising) Graph() *graph.Graph {
	g := graph.New(len(is.H))
	for e := range is.J {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// Edges returns the coupling edges in deterministic sorted order.
func (is *Ising) Edges() []graph.Edge {
	es := make([]graph.Edge, 0, len(is.J))
	for e := range is.J {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b graph.Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	return es
}

// MaxAbsCoefficient returns max(|h_i|, |J_ij|), used to scale the chain
// coupling during parameter setting.
func (is *Ising) MaxAbsCoefficient() float64 {
	max := 0.0
	for _, h := range is.H {
		if a := math.Abs(h); a > max {
			max = a
		}
	}
	for _, j := range is.J {
		if a := math.Abs(j); a > max {
			max = a
		}
	}
	return max
}

// Clone returns a deep copy.
func (is *Ising) Clone() *Ising {
	c := NewIsing(len(is.H))
	copy(c.H, is.H)
	c.Offset = is.Offset
	for e, j := range is.J {
		c.J[e] = j
	}
	return c
}

// BruteForce exhaustively minimizes the Ising energy, returning the optimal
// spin vector and its energy. It panics for n > 30.
func (is *Ising) BruteForce() ([]int8, float64) {
	n := len(is.H)
	if n > 30 {
		panic("qubo: brute force limited to n <= 30")
	}
	best := math.Inf(1)
	var bestS []int8
	s := make([]int8, n)
	total := 1 << uint(n)
	for mask := 0; mask < total; mask++ {
		for i := 0; i < n; i++ {
			if (mask>>uint(i))&1 == 1 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		if e := is.Energy(s); e < best {
			best = e
			bestS = append(bestS[:0], s...)
		}
	}
	return bestS, best
}

// GroundStates returns every spin configuration attaining the minimum energy
// (within tol), for exact degeneracy analysis on small models (n <= 20).
func (is *Ising) GroundStates(tol float64) ([][]int8, float64) {
	n := len(is.H)
	if n > 20 {
		panic("qubo: ground-state enumeration limited to n <= 20")
	}
	best := math.Inf(1)
	var states [][]int8
	s := make([]int8, n)
	total := 1 << uint(n)
	for mask := 0; mask < total; mask++ {
		for i := 0; i < n; i++ {
			if (mask>>uint(i))&1 == 1 {
				s[i] = 1
			} else {
				s[i] = -1
			}
		}
		e := is.Energy(s)
		switch {
		case e < best-tol:
			best = e
			states = states[:0]
			states = append(states, append([]int8(nil), s...))
		case math.Abs(e-best) <= tol:
			states = append(states, append([]int8(nil), s...))
		}
	}
	return states, best
}

// SpinsToBinary maps s ∈ {-1,+1} to b ∈ {0,1} via b = (1+s)/2.
func SpinsToBinary(s []int8) []int8 {
	b := make([]int8, len(s))
	for i, v := range s {
		if v > 0 {
			b[i] = 1
		}
	}
	return b
}

// BinaryToSpins maps b ∈ {0,1} to s ∈ {-1,+1} via s = 2b-1.
func BinaryToSpins(b []int8) []int8 {
	s := make([]int8, len(b))
	for i, v := range b {
		if v != 0 {
			s[i] = 1
		} else {
			s[i] = -1
		}
	}
	return s
}

// String implements fmt.Stringer.
func (is *Ising) String() string {
	return fmt.Sprintf("Ising{n=%d, couplings=%d, offset=%g}", len(is.H), len(is.J), is.Offset)
}
