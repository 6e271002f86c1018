// Package machine defines Go-native hardware descriptions for the
// asymmetric CPU+QPU node the paper models (Fig. 1a, Fig. 5): a conventional
// host socket, a quantum annealing socket, and the PCIe link joining them.
// The same description can be rendered to ASPEN machine-model source, so the
// analytic (DSL) and simulated (Go) execution paths share one set of
// hardware constants.
package machine

import (
	"fmt"
	"strings"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/graph"
)

// CPU describes a conventional multicore socket by aggregate rates.
type CPU struct {
	Name         string
	Cores        int
	ClockHz      float64
	SIMDWidthSP  float64 // single-precision SIMD lanes
	SIMDWidthDP  float64 // double-precision SIMD lanes
	FMAFactor    float64 // multiply-add fusion factor (2 when present)
	MemBandwidth float64 // bytes/second
}

// XeonE5_2680 is the paper's host CPU (Sandy Bridge-EP, 8 cores @ 2.7 GHz,
// AVX, quad-channel DDR3-1066).
func XeonE5_2680() CPU {
	return CPU{
		Name:         "intel_xeon_e5_2680",
		Cores:        8,
		ClockHz:      2.7e9,
		SIMDWidthSP:  8,
		SIMDWidthDP:  4,
		FMAFactor:    2,
		MemBandwidth: 34.1e9,
	}
}

// Trait flags mirroring the ASPEN resource traits.
type Trait uint8

// Traits selecting the flop rate.
const (
	SP Trait = 1 << iota // single precision
	SIMD
	FMAD
)

// FlopsRate returns the socket's flops/second for the trait set (double
// precision scalar when no traits given).
func (c CPU) FlopsRate(traits Trait) float64 {
	rate := c.ClockHz * float64(c.Cores)
	if traits&SIMD != 0 {
		if traits&SP != 0 {
			rate *= c.SIMDWidthSP
		} else {
			rate *= c.SIMDWidthDP
		}
	}
	if traits&FMAD != 0 {
		rate *= c.FMAFactor
	}
	return rate
}

// FlopTime converts an operation count to compute time under the traits.
func (c CPU) FlopTime(ops float64, traits Trait) time.Duration {
	return secondsToDuration(ops / c.FlopsRate(traits))
}

// MemTime converts a byte volume to memory-transfer time.
func (c CPU) MemTime(bytes float64) time.Duration {
	return secondsToDuration(bytes / c.MemBandwidth)
}

// Link is a host-device interconnect.
type Link struct {
	Name      string
	Bandwidth float64 // bytes/second
	Latency   time.Duration
}

// PCIe2x16 is the paper-era host-QPU interconnect.
func PCIe2x16() Link {
	return Link{Name: "pcie", Bandwidth: 8e9, Latency: 5 * time.Microsecond}
}

// TransferTime returns latency + bytes/bandwidth.
func (l Link) TransferTime(bytes float64) time.Duration {
	return l.Latency + secondsToDuration(bytes/l.Bandwidth)
}

// QPU describes the quantum annealing socket: its topology, fabrication
// faults and time constants.
type QPU struct {
	Name     string
	Topology graph.Chimera
	Faults   graph.FaultModel
	Timings  anneal.Timings
	// ControlBits is the DAC precision available for Ising parameters.
	ControlBits int
}

// DW2Vesuvius is the 512-qubit processor generation whose timing constants
// appear in the paper's stage models.
func DW2Vesuvius() QPU {
	return QPU{
		Name:        "DwaveVesuvius20",
		Topology:    graph.Vesuvius(),
		Timings:     anneal.DW2Timings(),
		ControlBits: 5,
	}
}

// DW2X1152 is the 1152-qubit C(12,12,4) generation used for the stage-1
// hardware-graph constants (M = N = 12, NG = 1152).
func DW2X1152() QPU {
	q := DW2Vesuvius()
	q.Name = "Dw2x"
	q.Topology = graph.DW2X()
	return q
}

// WorkingGraph returns the fault-pruned hardware graph. Without faults it is
// the freshly built topology itself: there is nothing to prune, and no other
// holder to protect with Apply's copy.
func (q QPU) WorkingGraph() *graph.Graph {
	hw := q.Topology.Graph()
	if len(q.Faults.DeadQubits) == 0 && len(q.Faults.DeadCouplers) == 0 {
		return hw
	}
	return q.Faults.Apply(hw)
}

// Node is the asymmetric multi-processor node of Fig. 1(a): host CPU plus
// QPU behind a link.
type Node struct {
	Name string
	CPU  CPU
	QPU  QPU
	Link Link
}

// SimpleNode mirrors the paper's Fig. 5 machine model (minus the GPU socket,
// which none of the application models exercise) with the DW2X topology used
// by the stage-1 resource model.
func SimpleNode() Node {
	return Node{Name: "SimpleNode", CPU: XeonE5_2680(), QPU: DW2X1152(), Link: PCIe2x16()}
}

// ToAspen renders the node as ASPEN machine-model source parseable by the
// aspen package, with one socket per processor and the QuOps resource on the
// QPU core. Rates are emitted so that the DSL's conversion semantics yield
// the same times as the Go-native methods.
func (n Node) ToAspen() string {
	var b strings.Builder
	anneal20 := n.QPU.Timings.AnnealTime.Seconds()
	fmt.Fprintf(&b, `memory hostmem {
  property bandwidth [%g]
}

link %s {
  property bandwidth [%g]
  property latency   [%g]
}

core hostcore {
  property clock         [%g]
  property issue_sp      [1]
  property issue_dp      [1]
  property simd_width_sp [%g]
  property simd_width_dp [%g]
  property fmad_factor   [%g]
}

socket %s {
  [%d] hostcore cores
  hostmem memory
  linked with %s
}

core qpucore {
  resource QuOps(number) [number * %g]
}

socket %s {
  [1] qpucore cores
  hostmem memory
  linked with %s
}

machine %s {
  [1] %s_node nodes
}

node %s_node {
  [1] %s sockets
  [1] %s sockets
}
`,
		n.CPU.MemBandwidth,
		n.Link.Name, n.Link.Bandwidth, n.Link.Latency.Seconds(),
		n.CPU.ClockHz, n.CPU.SIMDWidthSP, n.CPU.SIMDWidthDP, n.CPU.FMAFactor,
		n.CPU.Name, n.CPU.Cores, n.Link.Name,
		anneal20,
		n.QPU.Name, n.Link.Name,
		n.Name, n.Name,
		n.Name, n.CPU.Name, n.QPU.Name,
	)
	return b.String()
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
