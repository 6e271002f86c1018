package splitexec_test

import (
	"math"
	"testing"

	splitexec "github.com/splitexec/splitexec"
)

// The facade must expose a complete workflow without touching internal
// packages: build problem → solve → check → predict.
func TestFacadeEndToEnd(t *testing.T) {
	g := splitexec.Cycle(6)
	q := splitexec.MaxCut(g, nil)

	solver := splitexec.NewSolver(splitexec.Config{Seed: 9})
	sol, err := solver.SolveQUBO(q)
	if err != nil {
		t.Fatal(err)
	}
	if cut := splitexec.CutValue(g, nil, sol.Binary); cut != 6 {
		t.Errorf("cut = %v, want 6", cut)
	}
	if sol.Timing.Stage1() <= sol.Timing.Stage2() {
		t.Error("facade solve does not show the stage-1 bottleneck")
	}
}

func TestFacadePredictor(t *testing.T) {
	pred := splitexec.NewPredictor(splitexec.SimpleNode())
	s, err := pred.Predict(30, 0.99, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stage1 < 1 || s.Stage1 > 10 {
		t.Errorf("stage1(30) = %v s, expected a few seconds", s.Stage1)
	}
}

func TestFacadeProblemBuilders(t *testing.T) {
	if q := splitexec.NumberPartition([]float64{1, 2, 3}); q.Dim() != 3 {
		t.Error("NumberPartition dim")
	}
	if q := splitexec.MinVertexCover(splitexec.Complete(4), 3); q.Dim() != 4 {
		t.Error("MinVertexCover dim")
	}
	if q := splitexec.MaxIndependentSet(splitexec.Complete(4), 3); q.Dim() != 4 {
		t.Error("MaxIndependentSet dim")
	}
	if q := splitexec.GraphColoring(splitexec.Complete(3), 3, 2); q.Dim() != 9 {
		t.Error("GraphColoring dim")
	}
	is := splitexec.ToIsing(splitexec.NewQUBO(4))
	if is.Dim() != 4 {
		t.Error("ToIsing dim")
	}
}

func TestFacadeTopologiesAndEmbedding(t *testing.T) {
	if splitexec.Vesuvius().Qubits() != 512 || splitexec.DW2X().Qubits() != 1152 {
		t.Error("topology presets wrong")
	}
	vm, err := splitexec.CliqueEmbedding(8, splitexec.Vesuvius())
	if err != nil {
		t.Fatal(err)
	}
	hw := splitexec.Vesuvius().Graph()
	if err := splitexec.ValidateMinor(splitexec.Complete(8), hw, vm, true); err != nil {
		t.Error(err)
	}
}

func TestFacadeAspen(t *testing.T) {
	f, err := splitexec.ParseAspen(splitexec.Stage2Source)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := splitexec.ParseAspenWithIncludes(splitexec.SimpleNode().ToAspen())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := splitexec.BuildAspenMachine(mf, "SimpleNode")
	if err != nil {
		t.Fatal(err)
	}
	res, err := splitexec.EvaluateAspen(f.Models[0], spec, splitexec.AspenEvalOptions{
		Params: map[string]float64{"Accuracy": 99, "Success": 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalSeconds()-405e-6) > 1e-9 {
		t.Errorf("facade aspen eval = %v, want 405 µs", res.TotalSeconds())
	}
}

func TestFacadeRequiredReads(t *testing.T) {
	reads, err := splitexec.RequiredReads(0.99, 0.7)
	if err != nil || reads != 4 {
		t.Errorf("RequiredReads = %d, %v", reads, err)
	}
	if splitexec.DW2Timings().AnnealTime.Microseconds() != 20 {
		t.Error("DW2Timings anneal time wrong")
	}
}

// TestFacadeCompiledKernel solves through the facade with parallel readout:
// Config.ReadWorkers fans the compiled annealing kernel's reads across a
// worker pool without changing the answer.
func TestFacadeCompiledKernel(t *testing.T) {
	cfg := splitexec.Config{Seed: 3, ReadWorkers: 4}
	sol, err := splitexec.NewSolver(cfg).SolveQUBO(splitexec.MaxCut(splitexec.Cycle(6), nil))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Energy != -6 {
		t.Fatalf("parallel-read solve energy = %v, want -6", sol.Energy)
	}
}
