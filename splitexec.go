// Package splitexec is the public API of the split-execution computing
// library, a reproduction of "Performance Models for Split-execution
// Computing Systems" (Humble et al., 2016).
//
// Split-execution computing couples two computational models — here a
// conventional CPU and a D-Wave-style quantum annealing QPU — and pays a
// translation cost at the boundary. The facade exposes the paper-level
// workflow:
//
//   - a three-stage split-execution solver (translate+embed → anneal →
//     post-process) over a simulated or networked QPU (Solver, DialQPU),
//   - analytic performance models of each stage in an ASPEN-compatible
//     DSL, evaluated against machine models (Predictor, the Aspen names),
//     and swept across a design space on a worker pool (SweepModelOpt),
//   - the problems and hardware graphs those need: QUBO/Ising encodings,
//     Chimera topologies and clique embeddings.
//
// The Example functions are the runnable quick start. The service,
// workload, planning and telemetry layers live in the internal packages and
// are driven through the splitexec command.
package splitexec

import (
	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/aspen"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/dse"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/schedule"
)

// --- core pipeline ----------------------------------------------------------

// Config parameterizes a split-execution solver; see the field docs on the
// aliased type.
type Config = core.Config

// Solver executes QUBO/Ising problems on the modeled CPU+QPU node.
type Solver = core.Solver

// Predictor evaluates the paper's analytic stage models.
type Predictor = core.Predictor

// EmbeddingCache is the off-line embedding lookup table (paper §4) a
// Config.Cache enables.
type EmbeddingCache = core.EmbeddingCache

// NewSolver builds a solver for the given configuration.
func NewSolver(cfg Config) *Solver { return core.NewSolver(cfg) }

// NewPredictor builds an analytic predictor for a hardware node.
func NewPredictor(node Node) *Predictor { return core.NewPredictor(node) }

// --- problems ---------------------------------------------------------------

// QUBO is a quadratic unconstrained binary optimization instance.
type QUBO = qubo.QUBO

// Ising is a logical Ising model.
type Ising = qubo.Ising

// NewQUBO returns an all-zero QUBO over n binary variables.
func NewQUBO(n int) *QUBO { return qubo.NewQUBO(n) }

// ToIsing translates a QUBO to its logical Ising model (paper Eqs. 4–5).
func ToIsing(q *QUBO) *Ising { return qubo.ToIsing(q) }

// MaxCut returns the QUBO encoding maximum cut of g (nil weight = unit).
func MaxCut(g *Graph, weight func(u, v int) float64) *QUBO { return qubo.MaxCut(g, weight) }

// CutValue returns the weight of edges cut by the 0/1 partition b.
func CutValue(g *Graph, weight func(u, v int) float64, b []int8) float64 {
	return qubo.CutValue(g, weight, b)
}

// NumberPartition returns the QUBO for two-way balanced partitioning.
func NumberPartition(values []float64) *QUBO { return qubo.NumberPartition(values) }

// MinVertexCover returns the QUBO for minimum vertex cover with penalty P.
func MinVertexCover(g *Graph, penalty float64) *QUBO { return qubo.MinVertexCover(g, penalty) }

// MaxIndependentSet returns the QUBO for maximum independent set.
func MaxIndependentSet(g *Graph, penalty float64) *QUBO { return qubo.MaxIndependentSet(g, penalty) }

// GraphColoring returns the one-hot QUBO for proper k-coloring.
func GraphColoring(g *Graph, k int, penalty float64) *QUBO { return qubo.GraphColoring(g, k, penalty) }

// --- graphs and embedding ---------------------------------------------------

// Graph is an undirected simple graph over dense integer vertices.
type Graph = graph.Graph

// Chimera describes the C(M,N,L) quantum annealer topology.
type Chimera = graph.Chimera

// VertexModel maps logical vertices to hardware chains (a minor embedding).
type VertexModel = graph.VertexModel

// Complete returns K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Cycle returns C_n.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Grid returns the rows×cols lattice graph.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// Vesuvius is the 512-qubit C(8,8,4) topology.
func Vesuvius() Chimera { return graph.Vesuvius() }

// DW2X is the 1152-qubit C(12,12,4) topology.
func DW2X() Chimera { return graph.DW2X() }

// ValidateMinor checks a minor embedding of g into hw.
func ValidateMinor(g, hw *Graph, vm VertexModel, requireAll bool) error {
	return graph.ValidateMinor(g, hw, vm, requireAll)
}

// EmbedOptions configure the Cai–Macready–Roy heuristic (Config.Embed).
type EmbedOptions = embed.Options

// CliqueEmbedding deterministically embeds K_n into a Chimera topology.
var CliqueEmbedding = embed.CliqueEmbedding

// --- annealing and the QPU ----------------------------------------------------

// SamplerOptions configure the annealer substrate.
type SamplerOptions = anneal.SamplerOptions

// SQAOptions configure the simulated-quantum-annealing (path-integral)
// sampler a Config.SQA selects.
type SQAOptions = anneal.SQAOptions

// QPUTimings holds QPU hardware time constants.
type QPUTimings = anneal.Timings

// DW2Timings returns the paper's DW2 Vesuvius time constants.
func DW2Timings() QPUTimings { return anneal.DW2Timings() }

// RequiredReads returns the Eq. 6 repetition count for accuracy pa at
// single-run success ps.
var RequiredReads = anneal.RequiredReads

// Schedule is a piecewise-linear annealing waveform s(t) (Config.Schedule).
type Schedule = schedule.Schedule

// GapModel reduces an instance's internal energy structure to the minimum
// spectral gap and its position (Config.Gap).
type GapModel = schedule.GapModel

// ControlLimits are the waveform ranges the control system permits
// (Config.ScheduleLimits).
type ControlLimits = schedule.ControlLimits

// QPUServer serves a simulated QPU over TCP (the Fig. 1a deployment).
type QPUServer = qpuserver.Server

// QPUClient is the host-side handle to a remote QPU; it satisfies the
// solver's device interface, so Config.Device can point at one.
type QPUClient = qpuserver.Client

// NewQPUServer builds a QPU server with the given time constants.
func NewQPUServer(t QPUTimings, opts SamplerOptions) *QPUServer {
	return qpuserver.NewServer(t, opts)
}

// DialQPU connects to a QPU server.
func DialQPU(addr string) (*QPUClient, error) { return qpuserver.Dial(addr) }

// --- machine and performance models -------------------------------------------

// Node is the asymmetric CPU+QPU hardware node.
type Node = machine.Node

// SimpleNode mirrors the paper's Fig. 5 machine model.
func SimpleNode() Node { return machine.SimpleNode() }

// AspenFile is a parsed ASPEN source file.
type AspenFile = aspen.File

// AspenModel is an ASPEN application model.
type AspenModel = aspen.ModelDecl

// AspenMachine is a resolved ASPEN machine model.
type AspenMachine = aspen.MachineSpec

// AspenResult is an application-model evaluation.
type AspenResult = aspen.Result

// AspenEvalOptions configure evaluation.
type AspenEvalOptions = aspen.EvalOptions

// ParseAspen parses ASPEN source.
func ParseAspen(src string) (*AspenFile, error) { return aspen.Parse(src) }

// ParseAspenWithIncludes parses ASPEN source resolving includes against the
// embedded standard library.
func ParseAspenWithIncludes(src string) (*AspenFile, error) {
	return aspen.ParseWithIncludes(src, aspen.StdLoader)
}

// BuildAspenMachine resolves a machine declaration.
func BuildAspenMachine(f *AspenFile, name string) (*AspenMachine, error) {
	return aspen.BuildMachine(f, name)
}

// EvaluateAspen runs an application model against a machine model.
func EvaluateAspen(m *AspenModel, mach *AspenMachine, opts AspenEvalOptions) (*AspenResult, error) {
	return aspen.Evaluate(m, mach, opts)
}

// Stage1Source and Stage2Source are the paper's stage-1 and stage-2
// application model listings (Figs. 6 and 7).
const (
	Stage1Source = core.Stage1Source
	Stage2Source = core.Stage2Source
)

// --- design-space exploration --------------------------------------------------

// DSEAxis is one swept model parameter.
type DSEAxis = dse.Axis

// DSETable is an evaluated sweep.
type DSETable = dse.Table

// DSEObjective maps a parameter assignment to a scalar cost.
type DSEObjective = dse.Objective

// SweepOptions configure the parallel exploration engine (worker pool
// size, base seed, progress callback).
type SweepOptions = dse.SweepOptions

// ModelObjective adapts an ASPEN model to a DSE objective.
var ModelObjective = dse.ModelObjective

// SweepModelOpt evaluates an objective over the cartesian product of axes
// on a bounded worker pool, returning rows in canonical axis order for any
// worker count.
var SweepModelOpt = dse.SweepOpt

// LinSpace returns evenly spaced values (inclusive endpoints).
var LinSpace = dse.LinSpace
