package anneal

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/splitexec/splitexec/internal/qubo"
)

// Device models one QPU: a hardware Ising solver with the programming and
// execution time constants of the D-Wave family. Programming loads a
// hardware-space Ising model; Execute performs repeated anneal+readout
// cycles. The device keeps a virtual clock of QPU-side time so experiments
// report the same quantities as the paper's machine model regardless of the
// wall-clock speed of the classical simulation underneath.
type Device struct {
	Timings Timings
	Opts    SamplerOptions
	// SQA, when non-nil, selects the simulated-quantum-annealing substrate
	// (path-integral Monte Carlo) instead of classical Metropolis.
	SQA *SQAOptions
	// Workers bounds the concurrent readout workers of Execute (<= 1 runs
	// reads serially on the calling goroutine). Reads use per-read RNG
	// streams, so results are byte-identical for every worker count; Workers
	// only changes wall-clock time, never the virtual QPU clock.
	Workers int

	program *qubo.Ising
	sampler Annealer

	programTime time.Duration // accumulated programming time
	executeTime time.Duration // accumulated anneal/readout time
	totalReads  int
}

// NewDevice returns an unprogrammed device with the given time constants.
func NewDevice(t Timings, opts SamplerOptions) *Device {
	return &Device{Timings: t, Opts: opts}
}

// NewQuantumDevice returns a device whose anneals use the SQA substrate.
func NewQuantumDevice(t Timings, opts SQAOptions) *Device {
	return &Device{Timings: t, SQA: &opts}
}

// Program loads a hardware Ising model into the device, charging the
// one-time ProcessorInitialize cost (state machine + PMM + thermalization).
// A classical device compiles each program into the previous program's
// storage: the readers an Execute mints end with it, so none sees the
// change.
func (d *Device) Program(m *qubo.Ising) {
	d.program = m
	switch s, ok := d.sampler.(*Sampler); {
	case d.SQA != nil:
		d.sampler = NewSQASampler(m, *d.SQA)
	case ok:
		s.load(m, d.Opts)
	default:
		d.sampler = NewSampler(m, d.Opts)
	}
	d.programTime += d.Timings.ProcessorInitialize()
}

// Programmed reports whether a program is loaded.
func (d *Device) Programmed() bool { return d.program != nil }

// Execute performs reads annealing repetitions of the loaded program and
// returns the readout ensemble. The virtual clock advances by
// reads×AnnealTime + ReadoutTime + Thermalization.
func (d *Device) Execute(reads int, rng *rand.Rand) (*SampleSet, error) {
	if d.program == nil {
		return nil, fmt.Errorf("anneal: Execute before Program")
	}
	set, err := CollectParallel(d.sampler, d.program.Dim(), reads, d.Workers, rng.Int63())
	if err != nil {
		return nil, err
	}
	d.executeTime += d.Timings.ExecutionTime(reads)
	d.totalReads += reads
	return set, nil
}

// QPUTime returns the accumulated virtual QPU time split into programming
// and execution components.
func (d *Device) QPUTime() (programming, execution time.Duration) {
	return d.programTime, d.executeTime
}

// TotalReads returns the number of annealing repetitions performed since
// construction.
func (d *Device) TotalReads() int { return d.totalReads }

// Reset clears the loaded program and the virtual clock.
func (d *Device) Reset() {
	d.program = nil
	d.sampler = nil
	d.programTime = 0
	d.executeTime = 0
	d.totalReads = 0
}
