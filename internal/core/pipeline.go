package core

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/schedule"
)

// QPUDevice abstracts the quantum processor behind the pipeline: the local
// simulated device (anneal.Device) or a remote one reached over the
// client-server interface (qpuserver.Client). QPUTime reports cumulative
// modeled hardware time split into programming and execution.
type QPUDevice interface {
	Program(m *qubo.Ising) error
	Execute(reads int, rng *rand.Rand) (*anneal.SampleSet, error)
	QPUTime() (programming, execution time.Duration)
}

// localDevice adapts anneal.Device (whose Program cannot fail) to QPUDevice.
type localDevice struct{ dev *anneal.Device }

func (l localDevice) Program(m *qubo.Ising) error { l.dev.Program(m); return nil }
func (l localDevice) Execute(reads int, rng *rand.Rand) (*anneal.SampleSet, error) {
	return l.dev.Execute(reads, rng)
}
func (l localDevice) QPUTime() (time.Duration, time.Duration) { return l.dev.QPUTime() }

// LocalDevice wraps a simulated annealing device as a QPUDevice, for callers
// assembling device fleets by hand (see internal/service).
func LocalDevice(dev *anneal.Device) QPUDevice { return localDevice{dev: dev} }

// Config parameterizes a split-execution solver.
type Config struct {
	// Node is the hardware model; the zero value selects
	// machine.SimpleNode().
	Node machine.Node
	// Accuracy is the target solution accuracy pa in [0,1). Zero selects
	// the paper's 0.99.
	Accuracy float64
	// SuccessProb is the assumed single-run ground-state probability ps in
	// (0,1). Zero selects the paper's Fig. 9(b) value 0.7. Ignored when
	// Schedule is set.
	SuccessProb float64
	// Schedule, when non-nil, replaces the fixed SuccessProb with the
	// Landau-Zener model: ps is derived from the waveform's velocity at the
	// gap position (§3.2's "depends on the annealing time T and the shape
	// of the annealing schedule"), and the QPU's per-read anneal time
	// becomes the schedule duration. The waveform must satisfy
	// ScheduleLimits.
	Schedule *schedule.Schedule
	// Gap is the instance's internal energy structure for the schedule-
	// derived success model; nil selects schedule.DefaultGap().
	Gap *schedule.GapModel
	// ScheduleLimits validate Schedule; nil selects schedule.DW2Limits().
	ScheduleLimits *schedule.ControlLimits
	// ChainStrength for parameter setting (<= 0: automatic).
	ChainStrength float64
	// Embed configures the Cai–Macready–Roy heuristic.
	Embed embed.Options
	// Sampler configures the classical annealer substrate.
	Sampler anneal.SamplerOptions
	// SQA, when non-nil, replaces the classical substrate with simulated
	// quantum annealing (path-integral Monte Carlo over Trotter replicas).
	SQA *anneal.SQAOptions
	// Seed drives all stochastic components; the zero seed is valid and
	// deterministic.
	Seed int64
	// ReadWorkers bounds the concurrent readout workers of the local
	// simulated device (<= 1 runs reads serially). Reads draw from per-read
	// RNG streams, so solutions are byte-identical for every worker count —
	// ReadWorkers only changes wall-clock time. Ignored when Device is set.
	ReadWorkers int
	// Cache, when non-nil, enables off-line embedding lookup (stage-1
	// bypass); found embeddings skip the CMR search and successful CMR
	// searches populate the cache.
	Cache *EmbeddingCache
	// QuantizeControl applies the QPU's DAC precision to the programmed
	// parameters, modeling the control-precision error source of §2.2.
	QuantizeControl bool
	// ChainRepair decodes broken chains by greedy logical-energy descent
	// instead of plain majority vote (stage-3 post-processing refinement).
	ChainRepair bool
	// Device overrides the QPU: nil builds a local simulated device from
	// Node.QPU; a qpuserver.Client here runs the pipeline against a
	// networked processor (the paper's client-server deployment).
	Device QPUDevice
}

func (c Config) withDefaults() Config {
	if c.Node.Name == "" {
		c.Node = machine.SimpleNode()
	}
	if c.Accuracy == 0 {
		c.Accuracy = 0.99
	}
	if c.SuccessProb == 0 {
		c.SuccessProb = 0.7
	}
	return c
}

// Timing records where time went in one solve, split by pipeline stage and
// sub-phase. CPU phases carry measured wall-clock time of the real
// algorithms; QPU phases carry the machine model's hardware constants
// (virtual time), so the two computational domains are directly comparable
// as in the paper's Fig. 9.
type Timing struct {
	// Stage 1: classical pre-processing.
	Translate     time.Duration // QUBO → logical Ising (Eqs. 4–5)
	EmbedSearch   time.Duration // minor embedding (CMR or cache)
	SetParameters time.Duration // embedded Ising parameter setting
	Program       time.Duration // processor initialization (virtual)

	// Stage 2: quantum execution (virtual).
	Execute time.Duration

	// Stage 3: classical post-processing.
	Sort     time.Duration // heapsort of the readout ensemble
	Unembed  time.Duration // chain majority vote + domain mapping
	CacheHit bool          // stage 1 used the off-line embedding cache
}

// Stage1 returns the total stage-1 time.
func (t Timing) Stage1() time.Duration {
	return t.Translate + t.EmbedSearch + t.SetParameters + t.Program
}

// Stage2 returns the total stage-2 time.
func (t Timing) Stage2() time.Duration { return t.Execute }

// Stage3 returns the total stage-3 time.
func (t Timing) Stage3() time.Duration { return t.Sort + t.Unembed }

// Total returns the end-to-end time-to-solution.
func (t Timing) Total() time.Duration { return t.Stage1() + t.Stage2() + t.Stage3() }

// Solution is the result of one split-execution solve.
type Solution struct {
	// Spins is the best logical spin vector found; Binary its 0/1 image.
	Spins  []int8
	Binary []int8
	// Energy is the logical Ising energy of Spins (equals the QUBO energy
	// for translated problems, offset included).
	Energy float64
	// Reads is the number of annealing repetitions (Eq. 6).
	Reads int
	// SuccessProb is the single-run success probability the repetition
	// count was planned with — Config.SuccessProb, or the Landau-Zener
	// value derived from Config.Schedule.
	SuccessProb float64
	// BrokenChains counts chains that disagreed in the best readout;
	// RepairFlips counts chain-repair corrections (ChainRepair only).
	BrokenChains int
	RepairFlips  int
	// Embedding is the vertex model used; Stats the embedding search work.
	Embedding  graph.VertexModel
	EmbedStats embed.Stats
	// Samples is the full readout ensemble (hardware space), sorted by
	// energy ascending.
	Samples *anneal.SampleSet
	// SortComparisons is the measured heapsort work of stage 3.
	SortComparisons int
	// Timing is the per-phase cost breakdown.
	Timing Timing
}

// Solver executes QUBO/Ising problems on the modeled asymmetric CPU+QPU
// node. It is not safe for concurrent use; create one per goroutine.
type Solver struct {
	cfg    Config
	hw     *graph.Graph
	device QPUDevice
	rng    *rand.Rand
}

// NewSolver builds a solver, materializing the QPU working graph (topology
// minus faults).
func NewSolver(cfg Config) *Solver {
	cfg = cfg.withDefaults()
	if cfg.Schedule != nil {
		// The per-read anneal cost follows the programmed waveform rather
		// than the hardware default.
		cfg.Node.QPU.Timings.AnnealTime = cfg.Schedule.Duration()
	}
	dev := cfg.Device
	if dev == nil {
		local := anneal.NewDevice(cfg.Node.QPU.Timings, cfg.Sampler)
		local.SQA = cfg.SQA
		local.Workers = cfg.ReadWorkers
		dev = localDevice{dev: local}
	}
	return &Solver{
		cfg:    cfg,
		hw:     cfg.Node.QPU.WorkingGraph(),
		device: dev,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Hardware returns the QPU working graph used for embedding.
func (s *Solver) Hardware() *graph.Graph { return s.hw }

// SolveQUBO translates a QUBO instance (stage 1), executes it (stage 2) and
// post-processes the result (stage 3).
func (s *Solver) SolveQUBO(q *qubo.QUBO) (*Solution, error) {
	start := time.Now()
	logical := qubo.ToIsing(q)
	translate := time.Since(start)
	sol, err := s.SolveIsing(logical)
	if err != nil {
		return nil, err
	}
	sol.Timing.Translate += translate
	return sol, nil
}

// SolveIsing runs the split-execution pipeline on a logical Ising model.
func (s *Solver) SolveIsing(logical *qubo.Ising) (*Solution, error) {
	sol := &Solution{}

	// --- Stage 1: embed, set parameters, program -----------------------
	g := logical.Graph()
	embStart := time.Now()
	vm, stats, err := s.findEmbedding(g, sol)
	if err != nil {
		return nil, fmt.Errorf("core: stage 1: %w", err)
	}
	sol.Timing.EmbedSearch = time.Since(embStart)
	sol.Embedding = vm
	sol.EmbedStats = stats

	setStart := time.Now()
	em, err := embed.SetParameters(logical, vm, s.hw, s.cfg.ChainStrength)
	if err != nil {
		return nil, fmt.Errorf("core: stage 1 parameter setting: %w", err)
	}
	if s.cfg.QuantizeControl {
		scale := em.Model.MaxAbsCoefficient()
		if scale > 0 {
			embed.Quantize(em.Model, s.cfg.Node.QPU.ControlBits, scale)
		}
	}
	sol.Timing.SetParameters = time.Since(setStart)

	progBefore, _ := s.device.QPUTime()
	if err := s.device.Program(em.Model); err != nil {
		return nil, fmt.Errorf("core: stage 1 programming: %w", err)
	}
	progAfter, _ := s.device.QPUTime()
	sol.Timing.Program = progAfter - progBefore

	// --- Stage 2: repeated annealing ------------------------------------
	reads, ps, err := s.requiredReads()
	if err != nil {
		return nil, fmt.Errorf("core: stage 2: %w", err)
	}
	if reads < 1 {
		reads = 1
	}
	sol.Reads = reads
	sol.SuccessProb = ps
	_, execBefore := s.device.QPUTime()
	samples, err := s.device.Execute(reads, s.rng)
	if err != nil {
		return nil, fmt.Errorf("core: stage 2: %w", err)
	}
	_, execAfter := s.device.QPUTime()
	sol.Timing.Execute = execAfter - execBefore
	sol.Samples = samples

	// --- Stage 3: sort, unembed -----------------------------------------
	sortStart := time.Now()
	sol.SortComparisons = samples.SortByEnergy()
	sol.Timing.Sort = time.Since(sortStart)

	unembedStart := time.Now()
	best := samples.Best()
	var spins []int8
	var broken int
	if s.cfg.ChainRepair {
		spins, broken, sol.RepairFlips = em.UnembedRepair(best.Spins, logical)
	} else {
		spins, broken = em.Unembed(best.Spins)
	}
	sol.Spins = spins
	sol.Binary = qubo.SpinsToBinary(spins)
	sol.BrokenChains = broken
	sol.Energy = logical.Energy(spins)
	sol.Timing.Unembed = time.Since(unembedStart)
	return sol, nil
}

// requiredReads plans the Eq. 6 repetition count, deriving ps from the
// annealing schedule when one is configured.
func (s *Solver) requiredReads() (int, float64, error) {
	if s.cfg.Schedule == nil {
		reads, err := anneal.RequiredReads(s.cfg.Accuracy, s.cfg.SuccessProb)
		return reads, s.cfg.SuccessProb, err
	}
	lim := schedule.DW2Limits()
	if s.cfg.ScheduleLimits != nil {
		lim = *s.cfg.ScheduleLimits
	}
	if err := s.cfg.Schedule.Validate(lim); err != nil {
		return 0, 0, err
	}
	gap := schedule.DefaultGap()
	if s.cfg.Gap != nil {
		gap = *s.cfg.Gap
	}
	ps, err := schedule.SuccessProbability(*s.cfg.Schedule, gap)
	if err != nil {
		return 0, 0, err
	}
	switch {
	case ps >= 1:
		// Fully adiabatic (e.g. a hold at the gap): one read suffices.
		return 1, 1, nil
	case ps <= 0:
		return 0, 0, fmt.Errorf("core: schedule yields vanishing success probability")
	}
	reads, err := anneal.RequiredReads(s.cfg.Accuracy, ps)
	return reads, ps, err
}

// findEmbedding consults the off-line cache when configured, falling back to
// the CMR heuristic and populating the cache on success. It hashes g once,
// for both the lookup and the store.
func (s *Solver) findEmbedding(g *graph.Graph, sol *Solution) (graph.VertexModel, embed.Stats, error) {
	var key string
	if s.cfg.Cache != nil {
		key = graph.CanonicalHash(g)
		if vm := s.cfg.Cache.lookup(key, g); vm != nil {
			if err := graph.ValidateMinor(g, s.hw, vm, true); err == nil {
				sol.Timing.CacheHit = true
				return vm, embed.Stats{}, nil
			}
		}
	}
	vm, stats, err := embed.FindEmbedding(g, s.hw, s.rng, s.cfg.Embed)
	if err != nil {
		return nil, stats, err
	}
	if s.cfg.Cache != nil {
		s.cfg.Cache.store(key, g, vm)
	}
	return vm, stats, nil
}
