package embed

import (
	"fmt"
	"math"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

// Embedded couples a hardware-space Ising program with the vertex model that
// produced it. The Model's spin space is the hardware vertex space; unused
// qubits carry zero bias and no couplings.
type Embedded struct {
	Model         *qubo.Ising       // hardware-space Ising program
	VM            graph.VertexModel // logical vertex -> chain
	ChainStrength float64           // |J| applied to intra-chain couplers
	LogicalDim    int               // number of logical spins
}

// DefaultChainStrengthFactor multiplies the largest logical coefficient to
// obtain the ferromagnetic chain coupling; the paper notes the value is
// "typically chosen to be much larger than neighboring elements".
const DefaultChainStrengthFactor = 2.0

// SetParameters maps the logical Ising model onto hardware through the
// vertex model vm (paper §2.2, "parameter setting"):
//
//   - each logical bias h_i is spread evenly over the qubits of chain(i),
//   - each logical coupling J_ij is spread evenly over the available
//     hardware couplers between chain(i) and chain(j),
//   - every intra-chain coupler receives the ferromagnetic coupling
//     -chainStrength so chain qubits act collectively.
//
// A chainStrength <= 0 selects DefaultChainStrengthFactor × max|coefficient|
// (with a floor of 1 for all-zero problems).
func SetParameters(logical *qubo.Ising, vm graph.VertexModel, hw *graph.Graph, chainStrength float64) (*Embedded, error) {
	if err := graph.ValidateMinor(logical.Graph(), hw, vm, false); err != nil {
		return nil, fmt.Errorf("embed: invalid vertex model: %w", err)
	}
	return SetValidatedParameters(logical, vm, hw, chainStrength)
}

// SetValidatedParameters is SetParameters for a vertex model that has
// already passed graph.ValidateMinor against logical.Graph() and hw, as
// every model of the split-execution pipeline has: a cache hit is validated
// on lookup and the CMR search validates its own result. It skips the
// second validation and the logical graph it would rebuild. A model that
// has not been validated must go through SetParameters.
func SetValidatedParameters(logical *qubo.Ising, vm graph.VertexModel, hw *graph.Graph, chainStrength float64) (*Embedded, error) {
	if chainStrength <= 0 {
		chainStrength = DefaultChainStrengthFactor * logical.MaxAbsCoefficient()
		if chainStrength == 0 {
			chainStrength = 1
		}
	}
	phys := qubo.NewIsing(hw.Order())
	phys.Offset = logical.Offset

	for i := 0; i < logical.Dim(); i++ {
		chain := vm[i]
		if len(chain) == 0 {
			if logical.H[i] != 0 {
				return nil, fmt.Errorf("embed: logical spin %d has bias %g but no chain", i, logical.H[i])
			}
			continue
		}
		share := logical.H[i] / float64(len(chain))
		for _, q := range chain {
			phys.H[q] += share
		}
	}
	for _, e := range logical.Edges() {
		couplers := couplersBetween(hw, vm[e.U], vm[e.V])
		if len(couplers) == 0 {
			return nil, fmt.Errorf("embed: no hardware coupler for logical edge {%d,%d}", e.U, e.V)
		}
		share := logical.Coupling(e.U, e.V) / float64(len(couplers))
		for _, c := range couplers {
			phys.SetCoupling(c.U, c.V, phys.Coupling(c.U, c.V)+share)
		}
	}
	for _, edges := range graph.ChainEdges(hw, vm) {
		for _, c := range edges {
			phys.SetCoupling(c.U, c.V, phys.Coupling(c.U, c.V)-chainStrength)
		}
	}
	return &Embedded{Model: phys, VM: vm, ChainStrength: chainStrength, LogicalDim: logical.Dim()}, nil
}

// couplersBetween lists the hardware edges joining chains a and b.
func couplersBetween(hw *graph.Graph, a, b []int) []graph.Edge {
	inB := make(map[int]bool, len(b))
	for _, q := range b {
		inB[q] = true
	}
	var out []graph.Edge
	for _, q := range a {
		for _, u := range hw.Neighbors(q) {
			if inB[u] {
				out = append(out, graph.Edge{U: q, V: u}.Normalize())
			}
		}
	}
	return out
}

// Quantize rounds every bias and coupling of the model to the grid
// representable with the given number of control bits over [-scale, +scale],
// modeling the limited DAC precision the paper flags ("the ability to
// realize these exact parameter values is limited by the bits of
// precision"). It returns the maximum absolute rounding error introduced.
func Quantize(m *qubo.Ising, bits int, scale float64) float64 {
	if bits < 1 || scale <= 0 {
		panic(fmt.Sprintf("embed: invalid quantization (bits=%d scale=%g)", bits, scale))
	}
	levels := float64(int64(1)<<uint(bits)) - 1
	step := 2 * scale / levels
	maxErr := 0.0
	round := func(x float64) float64 {
		clamped := math.Max(-scale, math.Min(scale, x))
		r := math.Round((clamped+scale)/step)*step - scale
		if e := math.Abs(r - x); e > maxErr {
			maxErr = e
		}
		return r
	}
	for i, h := range m.H {
		m.H[i] = round(h)
	}
	for _, e := range m.Graph().Edges() {
		m.SetCoupling(e.U, e.V, round(m.Coupling(e.U, e.V)))
	}
	return maxErr
}

// Unembed maps a hardware spin readout back to the logical space by majority
// vote within each chain (ties broken toward +1), the standard chain
// decoding. broken counts chains whose qubits disagreed.
func (em *Embedded) Unembed(physical []int8) (logical []int8, broken int) {
	logical = make([]int8, em.LogicalDim)
	for i := 0; i < em.LogicalDim; i++ {
		chain := em.VM[i]
		if len(chain) == 0 {
			logical[i] = 1
			continue
		}
		sum, disagree := 0, false
		for _, q := range chain {
			sum += int(physical[q])
		}
		if abs(sum) != len(chain) {
			disagree = true
		}
		if disagree {
			broken++
		}
		if sum >= 0 {
			logical[i] = 1
		} else {
			logical[i] = -1
		}
	}
	return logical, broken
}

// EmbedSpins lifts a logical spin vector to the hardware space (every chain
// qubit takes the logical value; unused qubits get +1). Useful for computing
// the hardware energy of a known logical state.
func (em *Embedded) EmbedSpins(logical []int8) []int8 {
	phys := make([]int8, em.Model.Dim())
	for i := range phys {
		phys[i] = 1
	}
	for v, chain := range em.VM {
		for _, q := range chain {
			phys[q] = logical[v]
		}
	}
	return phys
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
