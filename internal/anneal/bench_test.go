package anneal

// Kernel microbenchmarks. The CI smoke step runs these with -benchtime=1x
// -benchmem so the hot paths can never silently stop compiling or start
// allocating; for real measurements use:
//
//	go test -bench 'Kernel|ParallelReads' -benchmem -count 10 ./internal/anneal | benchstat -
//
// Every kernel benchmark reports ns/proposal (time per replica-level
// Metropolis proposal) and allocs/op on the same footing, so the scalar,
// multi-spin and SQA kernels are directly comparable. The end-to-end
// numbers live in perfbench, the repository's benchmark. See
// docs/performance.md for the kernel design and recorded before/after
// numbers.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

func benchProgram(b *testing.B, cells int) *qubo.Ising {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := graph.Chimera{M: cells, N: cells, L: 4}.Graph()
	return qubo.RandomIsing(g, 1, 1, rng)
}

// BenchmarkKernelMetropolis times single anneals of the compiled scalar
// Metropolis kernel (64 sweeps) on random Chimera spin glasses.
func BenchmarkKernelMetropolis(b *testing.B) {
	for _, cells := range []int{1, 2, 4} {
		m := benchProgram(b, cells)
		b.Run(fmt.Sprintf("spins=%d", m.Dim()), func(b *testing.B) {
			s := NewSampler(m, SamplerOptions{Sweeps: 64})
			rng := rand.New(rand.NewSource(2))
			spins := make([]int8, m.Dim())
			for i := range spins {
				spins[i] = int8(2*(i%2) - 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AnnealFrom(spins, rng)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*s.ActiveSpins()), "ns/proposal")
		})
	}
}

// BenchmarkKernelBitParallel times the multi-spin word kernels through the
// public collection path: one iteration is a full 64-replica word, so the
// proposal count is 64× the scalar kernel's per anneal. The ±J Chimera
// programs here engage the bit-sliced integer kernel; the continuous
// variant forces the float word kernel for comparison.
func BenchmarkKernelBitParallel(b *testing.B) {
	for _, cells := range []int{1, 2, 4} {
		m := benchProgram(b, cells)
		b.Run(fmt.Sprintf("spins=%d", m.Dim()), func(b *testing.B) {
			s := NewSampler(m, SamplerOptions{Sweeps: 64, BitParallel: true})
			s.SampleParallel(wordReplicas, 1, 0) // warm scratch out of the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleParallel(wordReplicas, 1, int64(i))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*wordReplicas*s.ActiveSpins()), "ns/proposal")
		})
	}
	m := benchProgram(b, 4)
	rng := rand.New(rand.NewSource(5))
	for i := range m.H {
		m.H[i] = rng.NormFloat64()
	}
	b.Run(fmt.Sprintf("spins=%d-float", m.Dim()), func(b *testing.B) {
		s := NewSampler(m, SamplerOptions{Sweeps: 64, BitParallel: true})
		if s.bit.intOK {
			b.Fatal("expected the float word kernel")
		}
		s.SampleParallel(wordReplicas, 1, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SampleParallel(wordReplicas, 1, int64(i))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*wordReplicas*s.ActiveSpins()), "ns/proposal")
	})
}

// BenchmarkKernelSQA times single anneals of the path-integral kernel
// (64 sweeps, 8 Trotter slices).
func BenchmarkKernelSQA(b *testing.B) {
	for _, cells := range []int{1, 2} {
		m := benchProgram(b, cells)
		b.Run(fmt.Sprintf("spins=%d", m.Dim()), func(b *testing.B) {
			s := NewSQASampler(m, SQAOptions{Sweeps: 64, Replicas: 8})
			rng := rand.New(rand.NewSource(3))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Anneal(rng)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64*8*s.ActiveSpins()), "ns/proposal")
		})
	}
}

// BenchmarkParallelReads measures Device.Execute fanning 64 reads across
// worker counts. Results are byte-identical at every worker count (per-read
// DeriveSeed streams); only wall-clock changes. The bitparallel variant
// collects whole 64-replica words instead of scalar reads.
func BenchmarkParallelReads(b *testing.B) {
	m := benchProgram(b, 2)
	for _, workers := range []int{1, 2, 4} {
		for _, bp := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d", workers)
			if bp {
				name += "-bitparallel"
			}
			b.Run(name, func(b *testing.B) {
				d := NewDevice(DW2Timings(), SamplerOptions{Sweeps: 64, BitParallel: bp})
				d.Workers = workers
				d.Program(m)
				rng := rand.New(rand.NewSource(4))
				b.ReportAllocs()
				b.SetBytes(64 * int64(m.Dim())) // spins moved per Execute
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Execute(64, rng); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
