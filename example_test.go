package splitexec_test

import (
	"fmt"
	"log"
	"reflect"

	splitexec "github.com/splitexec/splitexec"
)

// Example is the quick start: solve MAX-CUT on an 8-cycle with the
// simulated split-execution system. The stage-1 interface (embedding plus
// the 0.32 s processor programming) outweighs quantum execution.
func Example() {
	g := splitexec.Cycle(8)
	problem := splitexec.MaxCut(g, nil)
	solver := splitexec.NewSolver(splitexec.Config{Seed: 1})
	sol, err := solver.SolveQUBO(problem)
	if err != nil {
		log.Fatal(err)
	}
	// sol.Binary is the partition, sol.Timing the per-stage cost split.
	fmt.Printf("cut %.0f of %d edges in %d QPU reads\n", splitexec.CutValue(g, nil, sol.Binary), g.Size(), sol.Reads)
	fmt.Println("stage 1 outweighs stage 2:", sol.Timing.Stage1() > sol.Timing.Stage2())
	// Output:
	// cut 8 of 8 edges in 4 QPU reads
	// stage 1 outweighs stage 2: true
}

// ExampleDialQPU solves through a quantum server reached over TCP, the
// client-server deployment of the paper's Fig. 1a: an in-process QPU server
// on loopback enforces its own topology, and the solver's stage 2 runs on
// the far side of the connection.
func ExampleDialQPU() {
	srv := splitexec.NewQPUServer(splitexec.DW2Timings(), splitexec.SamplerOptions{Sweeps: 256})
	srv.Hardware = splitexec.Vesuvius().Graph()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	cli, err := splitexec.DialQPU(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	node := splitexec.SimpleNode()
	node.QPU.Topology = splitexec.Vesuvius()
	solver := splitexec.NewSolver(splitexec.Config{Node: node, Seed: 5, Device: cli})
	g := splitexec.Grid(3, 3)
	sol, err := solver.SolveQUBO(splitexec.MaxCut(g, nil))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cut %.0f of %d edges (energy %.0f) in %d remote reads\n",
		splitexec.CutValue(g, nil, sol.Binary), g.Size(), sol.Energy, sol.Reads)
	// Output:
	// cut 12 of 12 edges (energy -12) in 4 remote reads
}

// ExampleSweepModelOpt sweeps the paper's stage-1 model (Fig. 6) over
// problem size and Chimera dimensions on the parallel exploration engine.
// The table is the same row for row at one worker and at four.
func ExampleSweepModelOpt() {
	f, err := splitexec.ParseAspen(splitexec.Stage1Source)
	if err != nil {
		log.Fatal(err)
	}
	mf, err := splitexec.ParseAspen(splitexec.SimpleNode().ToAspen())
	if err != nil {
		log.Fatal(err)
	}
	spec, err := splitexec.BuildAspenMachine(mf, "SimpleNode")
	if err != nil {
		log.Fatal(err)
	}
	obj := splitexec.ModelObjective(f.Models[0], spec, splitexec.AspenEvalOptions{
		HostSocket: splitexec.SimpleNode().CPU.Name,
	})
	axes := []splitexec.DSEAxis{
		{Name: "LPS", Values: splitexec.LinSpace(10, 100, 10)},
		{Name: "M", Values: splitexec.LinSpace(4, 16, 4)},
		{Name: "N", Values: splitexec.LinSpace(4, 16, 4)},
	}
	serial, err := splitexec.SweepModelOpt(obj, axes, splitexec.SweepOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := splitexec.SweepModelOpt(obj, axes, splitexec.SweepOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	best, err := tbl.ArgMin()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d design points, same table at 1 and 4 workers: %v\n",
		len(tbl.Rows), reflect.DeepEqual(serial.Rows, tbl.Rows))
	fmt.Printf("cheapest: %.4g s at LPS=%g M=%g N=%g\n",
		best.Value, best.Params["LPS"], best.Params["M"], best.Params["N"])
	// Output:
	// 160 design points, same table at 1 and 4 workers: true
	// cheapest: 0.3202 s at LPS=10 M=4 N=4
}
