package graph

import "fmt"

// Chimera describes the C(M,N,L) hardware topology used by the D-Wave
// processor family: an M-by-N grid of unit cells, each a complete bipartite
// K_{L,L} graph. Within a cell the "left" shore couples to the "right" shore;
// left-shore qubits couple vertically to the cell below, right-shore qubits
// couple horizontally to the cell to the right.
//
// The paper's Vesuvius-generation processor is C(8,8,4) (512 qubits); the
// DW2X referenced in Fig. 6 is C(12,12,4) (1152 qubits).
type Chimera struct {
	M, N, L int
}

// Vesuvius is the 512-qubit C(8,8,4) topology shown in the paper's Fig. 3.
func Vesuvius() Chimera { return Chimera{M: 8, N: 8, L: 4} }

// DW2X is the 1152-qubit C(12,12,4) topology used in the paper's stage-1
// model (M=12, N=12, NG=8*M*N=1152).
func DW2X() Chimera { return Chimera{M: 12, N: 12, L: 4} }

// Qubits returns the total number of physical qubits, 2*L*M*N.
func (c Chimera) Qubits() int { return 2 * c.L * c.M * c.N }

// Couplers returns the total number of couplers (edges):
// intra-cell L*L per cell plus inter-cell L*(2*M*N - M - N).
// For L=4 this matches the paper's EG = 4*(2*M*N - M - N) + 16*M*N.
func (c Chimera) Couplers() int {
	intra := c.L * c.L * c.M * c.N
	inter := c.L * (2*c.M*c.N - c.M - c.N)
	return intra + inter
}

// Index returns the linear qubit index for cell (row, col), shore
// (0 = left/vertical, 1 = right/horizontal) and in-shore position k in [0,L).
func (c Chimera) Index(row, col, shore, k int) int {
	if row < 0 || row >= c.M || col < 0 || col >= c.N || shore < 0 || shore > 1 || k < 0 || k >= c.L {
		panic(fmt.Sprintf("graph: chimera coordinate out of range (%d,%d,%d,%d) for C(%d,%d,%d)",
			row, col, shore, k, c.M, c.N, c.L))
	}
	return ((row*c.N+col)*2+shore)*c.L + k
}

// Coordinate is the inverse of Index.
func (c Chimera) Coordinate(q int) (row, col, shore, k int) {
	if q < 0 || q >= c.Qubits() {
		panic(fmt.Sprintf("graph: qubit %d out of range for C(%d,%d,%d)", q, c.M, c.N, c.L))
	}
	k = q % c.L
	q /= c.L
	shore = q % 2
	q /= 2
	col = q % c.N
	row = q / c.N
	return
}

// Graph materializes the Chimera topology as a Graph. It writes each
// qubit's sorted neighbor list straight into one backing array: a
// left-shore qubit's neighbors are the one above it, its cell's right shore
// and the one below; a right-shore qubit's are the one to its left, its
// cell's left shore and the one to its right. Indices ascend in that order.
func (c Chimera) Graph() *Graph {
	g := New(c.Qubits())
	backing := make([]int, 0, c.Qubits()*(c.L+2))
	rowStride := 2 * c.L * c.N // index distance between vertically adjacent cells
	q := 0
	for r := 0; r < c.M; r++ {
		for col := 0; col < c.N; col++ {
			cell := q
			for shore := 0; shore < 2; shore++ {
				// Left-shore qubits couple vertically, right-shore ones
				// horizontally.
				before, after, stride := r > 0, r+1 < c.M, rowStride
				if shore == 1 {
					before, after, stride = col > 0, col+1 < c.N, 2*c.L
				}
				other := cell + (1-shore)*c.L // first qubit of the opposite shore
				for k := 0; k < c.L; k++ {
					start := len(backing)
					if before {
						backing = append(backing, q-stride)
					}
					// Intra-cell complete bipartite K_{L,L}.
					for j := 0; j < c.L; j++ {
						backing = append(backing, other+j)
					}
					if after {
						backing = append(backing, q+stride)
					}
					// Capped at its length, so growing one list reallocates
					// it instead of overwriting the next.
					g.adj[q] = backing[start:len(backing):len(backing)]
					q++
				}
			}
		}
	}
	g.m = len(backing) / 2
	return g
}

// CellOf returns the (row, col) of the unit cell containing qubit q.
func (c Chimera) CellOf(q int) (row, col int) {
	row, col, _, _ = c.Coordinate(q)
	return
}

// String implements fmt.Stringer.
func (c Chimera) String() string {
	return fmt.Sprintf("C(%d,%d,%d)[%d qubits, %d couplers]", c.M, c.N, c.L, c.Qubits(), c.Couplers())
}
