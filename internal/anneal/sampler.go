// Package anneal simulates the quantum processing unit of the
// split-execution system. The real D-Wave device is unavailable, so the QPU
// substrate is a classical annealer over the *hardware* Ising program (the
// chain-coupled, Chimera-constrained model produced by parameter setting)
// plus the paper's timing constants for annealing, readout, thermalization
// and programming. This preserves the code path the paper models — program,
// repeat anneal+readout, post-process — and its probabilistic behaviour: a
// single anneal finds the ground state with some probability ps < 1, so the
// host repeats until the target accuracy is met (Eq. 6).
//
// Both samplers run on a shared compiled Ising kernel (qubo.Compiled): flat
// CSR adjacency, local fields maintained incrementally on accepted flips
// (making each Metropolis proposal O(1)), and incrementally tracked
// energies, so readout never re-evaluates the model from scratch. See
// docs/performance.md for the design and its benchmarks.
package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/splitexec/splitexec/internal/qubo"
)

// SamplerOptions configure the Metropolis simulated annealer.
type SamplerOptions struct {
	// Sweeps is the number of full Metropolis sweeps per anneal (default 64).
	Sweeps int
	// BetaStart and BetaEnd define the geometric inverse-temperature
	// schedule (defaults 0.1 → 10, scaled by the largest coefficient).
	BetaStart, BetaEnd float64
	// BitParallel selects the multi-spin-coded kernel (bitkernel.go): 64
	// independent replicas packed one-bit-per-spin into uint64 words, one
	// anneal per word. Collection then runs whole words — read r lands in
	// replica r%64 of word r/64, seeded parallel.DeriveSeed(seed, r/64) —
	// and stays byte-identical at any worker count. Opt-in: a word costs a
	// fixed ~64-replica price, so it pays off when Eq. 6 plans tens of
	// reads or more and wastes work below that (see docs/performance.md).
	// Ignored by the SQA substrate.
	BitParallel bool
}

func (o SamplerOptions) withDefaults(m *qubo.Ising) SamplerOptions {
	if o.Sweeps <= 0 {
		o.Sweeps = 64
	}
	scale := m.MaxAbsCoefficient()
	if scale == 0 {
		scale = 1
	}
	if o.BetaStart <= 0 {
		o.BetaStart = 0.1 / scale
	}
	if o.BetaEnd <= 0 {
		o.BetaEnd = 10 / scale
	}
	return o
}

// Sampler draws low-energy spin configurations from an Ising model using
// simulated annealing over the compiled kernel. A Sampler reuses its scratch
// buffers across anneals (allocation-free after warmup) and is therefore NOT
// safe for concurrent use; NewReader returns additional independent readers
// over the same compiled program for parallel readout.
type Sampler struct {
	prog   *qubo.Compiled
	opts   SamplerOptions
	betas  []float64
	fields []float64 // scratch: incremental local fields, one per spin
	m      []float64 // scratch: spins as ±1.0, the kernel's working state
	thr    []float64 // scratch: per-sweep acceptance thresholds Exp(1)/β
	bit    bitState  // scratch: multi-spin kernel state (BitParallel)
}

// NewSampler compiles the model for repeated annealing. Spins with zero bias
// and no couplings are frozen at +1 and never touched, mirroring unused
// physical qubits.
func NewSampler(m *qubo.Ising, opts SamplerOptions) *Sampler {
	s := &Sampler{prog: new(qubo.Compiled)}
	s.load(m, opts)
	return s
}

// load makes s anneal m as NewSampler(m, opts) would, recompiling into the
// storage of the program s held before and keeping the scratch buffers. No
// reader of s may be running.
func (s *Sampler) load(m *qubo.Ising, opts SamplerOptions) {
	opts = opts.withDefaults(m)
	s.prog.Recompile(m)
	s.opts = opts
	s.bit = bitState{}
	if opts.BitParallel {
		// Compile the word-kernel form once, up front: readers minted by
		// NewReader then share it instead of rebuilding per worker.
		s.bitBuild()
	}
	// Geometric β schedule.
	s.betas = slices.Grow(s.betas[:0], opts.Sweeps)[:opts.Sweeps]
	if opts.Sweeps == 1 {
		s.betas[0] = opts.BetaEnd
	} else {
		ratio := math.Pow(opts.BetaEnd/opts.BetaStart, 1/float64(opts.Sweeps-1))
		b := opts.BetaStart
		for i := range s.betas {
			s.betas[i] = b
			b *= ratio
		}
	}
}

// ActiveSpins returns the number of participating spins.
func (s *Sampler) ActiveSpins() int { return len(s.prog.Active) }

// Program returns the compiled Ising program the sampler anneals.
func (s *Sampler) Program() *qubo.Compiled { return s.prog }

// NewReader returns an independent single-goroutine annealing context
// sharing this sampler's compiled program and schedule. Readers are what the
// parallel readout path fans out across workers.
func (s *Sampler) NewReader() Annealer {
	c := *s
	c.fields, c.m, c.thr = nil, nil, nil
	// Readers share the (immutable once built) compiled adjacency forms but
	// get their own packed state and field rows/planes.
	c.bit.words, c.bit.fields, c.bit.fplanes = nil, nil, nil
	return &c
}

// Anneal performs one annealing run from a random initial state and returns
// the resulting spin configuration and its energy (including the model
// offset). The caller's rng contributes a single seed draw; the kernel runs
// on its own inline stream derived from it.
func (s *Sampler) Anneal(rng *rand.Rand) ([]int8, float64) {
	return s.annealSeeded(rng.Int63())
}

func (s *Sampler) annealSeeded(seed int64) ([]int8, float64) {
	spins := make([]int8, s.prog.Dim())
	e := s.annealInto(spins, seed)
	return spins, e
}

// annealInto runs one read from a random initial state into dst (len Dim),
// the zero-copy entry point of the collection arena.
func (s *Sampler) annealInto(dst []int8, seed int64) float64 {
	kr := newKernelRand(seed)
	for i := range dst {
		dst[i] = 1
	}
	for _, i := range s.prog.Active {
		if kr.next()>>63 == 0 {
			dst[i] = -1
		}
	}
	return s.run(dst, &kr)
}

// AnnealFrom performs one annealing run starting from the provided state
// (mutated in place) and returns its final energy. The initial state must
// have length Dim.
func (s *Sampler) AnnealFrom(spins []int8, rng *rand.Rand) float64 {
	if len(spins) != s.prog.Dim() {
		panic(fmt.Sprintf("anneal: state length %d != model dim %d", len(spins), s.prog.Dim()))
	}
	kr := newKernelRand(rng.Int63())
	return s.run(spins, &kr)
}

// run is the compiled Metropolis kernel. Local fields are initialized once
// (O(|E|)) and then maintained incrementally on accepted flips, so each
// proposal costs O(1): one field read for ΔE plus one threshold compare for
// the acceptance test. The test uses the exact identity
//
//	u < exp(−βΔE)  ⇔  Exp(1)/β > ΔE,
//
// which also covers downhill moves for free (thresholds are positive), so
// one compare-and-branch decides every proposal. Each sweep's i.i.d.
// thresholds are pre-generated into a scratch buffer by the ziggurat
// sampler — they are independent of ΔE, so drawing them ahead of the sweep
// is distributionally identical — which keeps the spin loop call-free (the
// register allocator keeps the kernel state out of memory) and replaces the
// math.Exp per uphill proposal of the old kernel (≈46% of its time) with
// one load and compare. The final energy is tracked incrementally from the
// initial EnergyFromFields, so readout never re-evaluates the model.
func (s *Sampler) run(spins []int8, kr *kernelRand) float64 {
	prog := s.prog
	n := prog.Dim()
	s.fields = prog.LocalFields(spins, s.fields)
	fields := s.fields
	if cap(s.m) < n {
		s.m = make([]float64, n)
		s.thr = make([]float64, n)
	}
	// The kernel works on ±1.0 floats so the sweep loop never converts int8;
	// spins is read once here and written back once at the end.
	m := s.m[:n]
	for i, sp := range spins {
		m[i] = float64(sp)
	}
	energy := prog.EnergyFromFields(spins, fields)
	// Length ties for bounds-check elimination in the sweep loops.
	fields = fields[:len(m)]
	rowPtr := prog.RowPtr[:len(m)+1]
	col := prog.Col
	val := prog.Val[:len(col)]
	active := prog.Active
	dense := len(active) == n
	thr := s.thr[:len(active)] // one acceptance threshold per proposal
	for _, beta := range s.betas {
		kr.fillExp(thr, 1/beta)
		// Two copies of the sweep body: models whose spins are all active
		// (logical models sampled directly) skip the Active indirection and
		// its bounds checks; sparse hardware programs (a few chains on a
		// large topology) walk the active list. Keep the bodies in sync.
		if dense {
			thr := thr[:len(m)]
			for i := range m {
				mi := m[i]
				dE := -2 * mi * fields[i]
				if thr[i] <= dE {
					continue // rejected uphill move
				}
				m[i] = -mi
				energy += dE
				d := -2 * mi
				for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
					fields[col[k]] += d * val[k]
				}
			}
			continue
		}
		for ii, i := range active {
			mi := m[i]
			dE := -2 * mi * fields[i]
			if thr[ii] <= dE {
				continue // rejected uphill move
			}
			m[i] = -mi
			energy += dE
			d := -2 * mi
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				fields[col[k]] += d * val[k]
			}
		}
	}
	for i := range spins {
		spins[i] = int8(m[i]) // ±1.0 → ±1, branchless
	}
	return energy
}

// Sample runs reads independent anneals and collects the results. Each read
// draws from its own RNG stream derived from one rng.Int63() call, so the
// returned set is identical to SampleParallel with any worker count.
func (s *Sampler) Sample(reads int, rng *rand.Rand) *SampleSet {
	return s.SampleParallel(reads, 1, rng.Int63())
}

// SampleParallel runs reads independent anneals across a bounded worker pool
// (workers <= 1 runs serially on the calling goroutine). Read r draws from
// the RNG stream DeriveSeed(seed, r) and lands in slot r, so the result is
// byte-identical for every worker count. It panics on reads < 1 (use
// CollectParallel to get the error instead).
func (s *Sampler) SampleParallel(reads, workers int, seed int64) *SampleSet {
	set, err := CollectParallel(s, s.prog.Dim(), reads, workers, seed)
	if err != nil {
		panic(err)
	}
	return set
}
