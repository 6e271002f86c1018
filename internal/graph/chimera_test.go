package graph

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestChimeraPaperSizes(t *testing.T) {
	v := Vesuvius()
	if v.Qubits() != 512 {
		t.Errorf("Vesuvius qubits = %d, want 512", v.Qubits())
	}
	d := DW2X()
	if d.Qubits() != 1152 {
		t.Errorf("DW2X qubits = %d, want 1152 (paper: 12-by-12 lattice)", d.Qubits())
	}
}

// The paper's stage-1 model uses NG = 8*M*N and
// EG = 4*(2*M*N - M - N) + 16*M*N for the C(M,N,4) hardware graph. Our
// generated topology must match those closed forms exactly.
func TestChimeraMatchesPaperFormulas(t *testing.T) {
	for _, c := range []Chimera{{2, 2, 4}, {8, 8, 4}, {12, 12, 4}, {3, 5, 4}} {
		g := c.Graph()
		ng := 8 * c.M * c.N
		eg := 4*(2*c.M*c.N-c.M-c.N) + 16*c.M*c.N
		if g.Order() != ng {
			t.Errorf("%v: order = %d, want NG = %d", c, g.Order(), ng)
		}
		if g.Size() != eg {
			t.Errorf("%v: size = %d, want EG = %d", c, g.Size(), eg)
		}
		if c.Couplers() != eg {
			t.Errorf("%v: Couplers() = %d, want %d", c, c.Couplers(), eg)
		}
	}
}

func TestChimeraDegreeBounds(t *testing.T) {
	// Paper §2.1: each qubit interacts with 6 neighbors (5 for edge qubits)
	// in C(M,N,4): 4 intra-cell + up to 2 inter-cell.
	g := Chimera{4, 4, 4}.Graph()
	min, max := math.MaxInt32, 0
	for v := 0; v < g.Order(); v++ {
		d := g.Degree(v)
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if min != 5 || max != 6 {
		t.Errorf("degree range = [%d,%d], want [5,6]", min, max)
	}
}

func TestChimeraIndexCoordinateRoundTrip(t *testing.T) {
	c := Chimera{3, 4, 4}
	for q := 0; q < c.Qubits(); q++ {
		r, col, s, k := c.Coordinate(q)
		if got := c.Index(r, col, s, k); got != q {
			t.Fatalf("round trip %d -> (%d,%d,%d,%d) -> %d", q, r, col, s, k, got)
		}
	}
}

func TestChimeraIndexPanics(t *testing.T) {
	c := Chimera{2, 2, 4}
	for _, bad := range [][4]int{{-1, 0, 0, 0}, {2, 0, 0, 0}, {0, 0, 2, 0}, {0, 0, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Index%v did not panic", bad)
				}
			}()
			c.Index(bad[0], bad[1], bad[2], bad[3])
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Coordinate(-1) did not panic")
		}
	}()
	c.Coordinate(-1)
}

func TestChimeraBipartiteWithinCell(t *testing.T) {
	c := Chimera{2, 2, 4}
	g := c.Graph()
	// Same-shore qubits in one cell are never adjacent.
	for k1 := 0; k1 < 4; k1++ {
		for k2 := k1 + 1; k2 < 4; k2++ {
			if g.HasEdge(c.Index(0, 0, 0, k1), c.Index(0, 0, 0, k2)) {
				t.Error("left-shore qubits adjacent within a cell")
			}
			if g.HasEdge(c.Index(0, 0, 1, k1), c.Index(0, 0, 1, k2)) {
				t.Error("right-shore qubits adjacent within a cell")
			}
		}
	}
	// Opposite shores fully coupled.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !g.HasEdge(c.Index(1, 1, 0, i), c.Index(1, 1, 1, j)) {
				t.Error("missing intra-cell coupler")
			}
		}
	}
}

func TestChimeraInterCellCouplers(t *testing.T) {
	c := Chimera{3, 3, 4}
	g := c.Graph()
	// Vertical: left shore k couples to left shore k one row down.
	if !g.HasEdge(c.Index(0, 1, 0, 2), c.Index(1, 1, 0, 2)) {
		t.Error("missing vertical coupler")
	}
	if g.HasEdge(c.Index(0, 1, 0, 2), c.Index(1, 1, 0, 3)) {
		t.Error("vertical coupler crosses in-shore positions")
	}
	// Horizontal: right shore k couples to right shore k one column right.
	if !g.HasEdge(c.Index(1, 0, 1, 0), c.Index(1, 1, 1, 0)) {
		t.Error("missing horizontal coupler")
	}
	// No wraparound.
	if g.HasEdge(c.Index(2, 0, 0, 0), c.Index(0, 0, 0, 0)) {
		t.Error("unexpected vertical wraparound")
	}
}

func TestChimeraConnected(t *testing.T) {
	if !IsConnected(Chimera{4, 3, 4}.Graph()) {
		t.Error("chimera graph should be connected")
	}
}

func TestChimeraCellOf(t *testing.T) {
	c := Chimera{4, 4, 4}
	q := c.Index(2, 3, 1, 0)
	r, col := c.CellOf(q)
	if r != 2 || col != 3 {
		t.Errorf("CellOf = (%d,%d), want (2,3)", r, col)
	}
}

// Property: coordinate round-trips for random Chimera shapes.
func TestChimeraRoundTripProperty(t *testing.T) {
	f := func(m, n, q uint8) bool {
		c := Chimera{M: int(m%6) + 1, N: int(n%6) + 1, L: 4}
		qi := int(q) % c.Qubits()
		r, col, s, k := c.Coordinate(qi)
		return c.Index(r, col, s, k) == qi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// chimeraByEdges builds the Chimera topology one coupler at a time: the
// reference that Graph's direct fill must reproduce.
func chimeraByEdges(c Chimera) *Graph {
	g := New(c.Qubits())
	for r := 0; r < c.M; r++ {
		for col := 0; col < c.N; col++ {
			for i := 0; i < c.L; i++ {
				for j := 0; j < c.L; j++ {
					g.AddEdge(c.Index(r, col, 0, i), c.Index(r, col, 1, j))
				}
			}
			for k := 0; k < c.L && r+1 < c.M; k++ {
				g.AddEdge(c.Index(r, col, 0, k), c.Index(r+1, col, 0, k))
			}
			for k := 0; k < c.L && col+1 < c.N; k++ {
				g.AddEdge(c.Index(r, col, 1, k), c.Index(r, col+1, 1, k))
			}
		}
	}
	return g
}

func TestChimeraGraphMatchesEdgeByEdge(t *testing.T) {
	for _, c := range []Chimera{{0, 3, 4}, {1, 1, 1}, {1, 1, 4}, {1, 5, 2}, {4, 1, 3}, {3, 5, 4}, {8, 8, 4}, {12, 12, 4}} {
		got, want := c.Graph(), chimeraByEdges(c)
		if !got.Equal(want) || got.Size() != want.Size() {
			t.Fatalf("%v: direct fill %v differs from edge-by-edge %v", c, got, want)
		}
		for v := 0; v < got.Order(); v++ {
			if !sort.IntsAreSorted(got.Neighbors(v)) {
				t.Fatalf("%v: neighbors of %d unsorted: %v", c, v, got.Neighbors(v))
			}
		}
		// Lists share one backing array: growing one must not touch the next.
		if n := got.Order(); n >= 2 {
			got.AddEdge(0, n)
			want.AddEdge(0, n)
			if !got.Equal(want) {
				t.Fatalf("%v: growing vertex 0's list disturbed another", c)
			}
		}
	}
}
