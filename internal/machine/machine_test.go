package machine

import (
	"math"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/aspen"
	"github.com/splitexec/splitexec/internal/graph"
)

func TestXeonRates(t *testing.T) {
	cpu := XeonE5_2680()
	cases := []struct {
		traits Trait
		want   float64
	}{
		{0, 21.6e9},          // dp scalar
		{SP, 21.6e9},         // sp scalar
		{SP | SIMD, 172.8e9}, // AVX SP
		{SIMD, 86.4e9},       // AVX DP
		{SP | SIMD | FMAD, 345.6e9},
	}
	for _, c := range cases {
		if got := cpu.FlopsRate(c.traits); math.Abs(got-c.want) > 1 {
			t.Errorf("traits %b: rate = %v, want %v", c.traits, got, c.want)
		}
	}
}

func TestFlopAndMemTimes(t *testing.T) {
	cpu := XeonE5_2680()
	if d := cpu.FlopTime(172.8e9, SP|SIMD); d != time.Second {
		t.Errorf("FlopTime = %v, want 1s", d)
	}
	if d := cpu.MemTime(34.1e9); d != time.Second {
		t.Errorf("MemTime = %v, want 1s", d)
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := PCIe2x16()
	if d := l.TransferTime(8e9); d != time.Second+5*time.Microsecond {
		t.Errorf("TransferTime = %v", d)
	}
	if d := l.TransferTime(0); d != 5*time.Microsecond {
		t.Errorf("latency-only transfer = %v", d)
	}
}

func TestQPUPresets(t *testing.T) {
	v := DW2Vesuvius()
	if v.Topology.Qubits() != 512 {
		t.Errorf("Vesuvius qubits = %d", v.Topology.Qubits())
	}
	x := DW2X1152()
	if x.Topology.Qubits() != 1152 {
		t.Errorf("DW2X qubits = %d", x.Topology.Qubits())
	}
	if v.Timings.AnnealTime != 20*time.Microsecond {
		t.Errorf("anneal time = %v", v.Timings.AnnealTime)
	}
}

func TestWorkingGraphAppliesFaults(t *testing.T) {
	q := DW2Vesuvius()
	q.Faults.DeadQubits = []int{0, 1}
	g := q.WorkingGraph()
	if g.Degree(0) != 0 || g.Degree(1) != 0 {
		t.Error("dead qubits still wired")
	}
	if g.Order() != 512 {
		t.Errorf("order = %d", g.Order())
	}
}

func TestWorkingGraphWithoutFaults(t *testing.T) {
	q := DW2Vesuvius()
	a, b := q.WorkingGraph(), q.WorkingGraph()
	if !a.Equal(q.Topology.Graph()) {
		t.Fatal("fault-free working graph differs from the topology")
	}
	// Each call builds its own graph: a caller mutating one affects no other.
	a.RemoveVertex(5)
	if b.Degree(5) == 0 || !b.Equal(q.Topology.Graph()) {
		t.Error("working graphs share state")
	}
	// A coupler-only fault model is still applied.
	q.Faults.DeadCouplers = []graph.Edge{{U: 0, V: 4}}
	if g := q.WorkingGraph(); g.HasEdge(0, 4) || g.Size() != q.Topology.Couplers()-1 {
		t.Error("dead coupler still wired")
	}
}

// BenchmarkWorkingGraph times the per-job build of the fault-free C(8,8,4)
// working graph that core.NewSolver performs.
func BenchmarkWorkingGraph(b *testing.B) {
	q := DW2Vesuvius()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if q.WorkingGraph().Order() != 512 {
			b.Fatal("wrong order")
		}
	}
}

// The critical consistency property: the ASPEN rendering of the node must
// evaluate resources to the same times as the Go-native methods.
func TestToAspenRoundTrip(t *testing.T) {
	n := SimpleNode()
	f, err := aspen.Parse(n.ToAspen())
	if err != nil {
		t.Fatalf("generated ASPEN does not parse: %v", err)
	}
	spec, err := aspen.BuildMachine(f, n.Name)
	if err != nil {
		t.Fatal(err)
	}
	cpu := spec.Socket(n.CPU.Name)
	if cpu == nil {
		t.Fatal("CPU socket missing from generated machine")
	}
	for _, tc := range []struct {
		traits  []string
		goTrait Trait
	}{
		{nil, 0},
		{[]string{"sp"}, SP},
		{[]string{"sp", "simd"}, SP | SIMD},
		{[]string{"sp", "simd", "fmad"}, SP | SIMD | FMAD},
		{[]string{"dp", "simd"}, SIMD},
	} {
		got, err := cpu.FlopsRate(tc.traits)
		if err != nil {
			t.Fatal(err)
		}
		want := n.CPU.FlopsRate(tc.goTrait)
		if math.Abs(got-want)/want > 1e-12 {
			t.Errorf("traits %v: aspen %v != native %v", tc.traits, got, want)
		}
	}
	// QuOps: 7 reads = 140 µs either way.
	qpu := spec.Socket(n.QPU.Name)
	if qpu == nil {
		t.Fatal("QPU socket missing")
	}
	sec, err := qpu.CustomResourceTime("QuOps", 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 * n.QPU.Timings.AnnealTime.Seconds(); math.Abs(sec-want) > 1e-15 {
		t.Errorf("QuOps: aspen %v != native %v", sec, want)
	}
	// Memory bandwidth.
	bw, err := cpu.MemoryBandwidth()
	if err != nil {
		t.Fatal(err)
	}
	if bw != n.CPU.MemBandwidth {
		t.Errorf("bandwidth: %v != %v", bw, n.CPU.MemBandwidth)
	}
	// Link.
	lt, err := qpu.LinkTime(8e9)
	if err != nil {
		t.Fatal(err)
	}
	if want := n.Link.TransferTime(8e9).Seconds(); math.Abs(lt-want) > 1e-12 {
		t.Errorf("link: %v != %v", lt, want)
	}
}

func TestSimpleNodeShape(t *testing.T) {
	n := SimpleNode()
	if n.QPU.Topology.M != 12 || n.QPU.Topology.N != 12 {
		t.Errorf("SimpleNode QPU topology = %+v, want C(12,12,4)", n.QPU.Topology)
	}
	if n.CPU.Cores != 8 {
		t.Errorf("cores = %d", n.CPU.Cores)
	}
}
