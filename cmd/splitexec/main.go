// Command splitexec solves a classical optimization problem on the modeled
// split-execution (CPU + quantum annealer) system and reports the solution
// together with the per-stage time breakdown the paper analyzes.
//
// Usage:
//
//	splitexec -problem maxcut -n 12 -seed 1
//	splitexec -problem partition -n 16 -accuracy 0.999
//	splitexec -problem random -n 10 -density 0.4 -faults 0.02
//
// The serve subcommand runs the concurrent multi-QPU dispatch service
// behind a TCP front-end instead of solving one local problem:
//
//	splitexec serve -addr :7464 -hosts 4 -devices 1
//
// The route subcommand federates several serve instances behind one
// consistent-hash sharded front end speaking the same wire protocol
// (docs/cluster.md): QUBO jobs shard by embedding-cache key, profile jobs
// by class, backlogged shards shed work to the shortest queue, and health
// checks evict dead shards so their traffic re-dispatches:
//
//	splitexec route -addr :7465 -shards 127.0.0.1:7464,127.0.0.1:7466
//
// The admin subcommand drives a running route tier's elastic membership
// remotely over the same wire protocol: add joins a new shard (warming its
// embedding cache before ownership flips), drain retires one gracefully,
// remove evicts it crash-style, and status prints the membership table and
// epoch (docs/cluster.md):
//
//	splitexec admin -addr 127.0.0.1:7465 add 127.0.0.1:7468
//	splitexec admin -addr 127.0.0.1:7465 status
//
// The simulate, loadgen and plan subcommands drive the open-system
// workload engine from a declarative scenario file (docs/workloads.md):
// simulate runs the discrete-event simulator in virtual time, loadgen
// replays the same scenario against a live service and prints measured vs
// simulated, and plan inverts the models into a provisioning decision —
// the cheapest {hosts, fleet, policy} meeting an SLO (docs/planning.md):
//
//	splitexec simulate -scenario burst.json
//	splitexec loadgen -scenario burst.json -addr 127.0.0.1:7464
//	splitexec plan -scenario burst.json -p99 10ms -hosts 1:16 -policies all
//
// The storm subcommand soak-tests the adversarial scenario corpus: each
// scenario is predicted with the simulator, replayed live over loopback TCP
// with its fault regime injected, and judged against its declared
// DES-vs-live acceptance band (docs/scenarios.md):
//
//	splitexec storm -dir scenarios
//	splitexec storm -dir scenarios -quick -json
//
// The figures subcommand regenerates the data series behind the paper's
// evaluation (Fig. 9a–c, the §3.3 stage-dominance summary and the
// architecture, TTS and design-space extensions) as tab-separated tables:
//
//	splitexec figures -fig 9a            # stage-1 model + measured CMR series
//	splitexec figures -fig 9b -ps 0.7    # stage-2 time vs accuracy
//	splitexec figures -fig all -workers 8
//
// The aspen subcommand evaluates an ASPEN performance model, one of the
// paper's stage listings (Figs. 6–8) or a model file, at a point or, with
// -sweep, across a design space on a worker pool:
//
//	splitexec aspen -stage 2 -param Accuracy=99 -param Success=0.7
//	splitexec aspen -file model.aspen -machine MyMachine -param N=64
//	splitexec aspen -stage 3 -sweep LPS=log:1:1000:13 -sweep Success=0.5:0.9:5
//
// The qpud subcommand serves a simulated QPU over TCP, the quantum server
// of the paper's client-server deployment (Fig. 1a):
//
//	splitexec qpud -addr :7447 -m 12 -ncols 12 -sweeps 256
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/schedule"
)

// subcommands maps each subcommand name to its entry point; any other
// first argument is a flag of the default single-problem solve.
var subcommands = map[string]func(args []string){
	"admin":    runAdmin,
	"aspen":    runAspen,
	"figures":  runFigures,
	"loadgen":  runLoadgen,
	"plan":     runPlan,
	"qpud":     runQpud,
	"route":    runRoute,
	"serve":    runServe,
	"simulate": runSimulate,
	"storm":    runStorm,
}

func main() {
	if len(os.Args) > 1 {
		if run, ok := subcommands[os.Args[1]]; ok {
			run(os.Args[2:])
			return
		}
	}
	var (
		problem  = flag.String("problem", "maxcut", "problem type: maxcut, partition, vertexcover, independentset, random")
		n        = flag.Int("n", 10, "problem size (vertices or values)")
		density  = flag.Float64("density", 0.3, "edge/coupling density for random inputs")
		seed     = flag.Int64("seed", 1, "random seed")
		accuracy = flag.Float64("accuracy", 0.99, "target solution accuracy pa")
		ps       = flag.Float64("ps", 0.7, "assumed single-run success probability")
		m        = flag.Int("m", 8, "Chimera rows M")
		ncols    = flag.Int("ncols", 8, "Chimera columns N")
		faults   = flag.Float64("faults", 0, "qubit fault rate")
		sweeps   = flag.Int("sweeps", 256, "annealer sweeps per read")
		quantize = flag.Bool("quantize", false, "apply DAC control-precision quantization")
		annealUs = flag.Float64("anneal", 0, "linear anneal duration in µs; >0 derives ps from the Landau-Zener schedule model instead of -ps")
		gapMin   = flag.Float64("gap", 0.15, "minimum spectral gap for the schedule model (with -anneal)")
		gapPos   = flag.Float64("gappos", 0.65, "anneal fraction of the gap minimum (with -anneal)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		names := make([]string, 0, len(subcommands))
		for name := range subcommands {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "splitexec: unknown subcommand or argument %q\nsubcommands: %s\n",
			flag.Arg(0), strings.Join(names, ", "))
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	node := machine.SimpleNode()
	node.QPU.Topology = graph.Chimera{M: *m, N: *ncols, L: 4}
	if *faults > 0 {
		node.QPU.Faults = graph.RandomFaults(node.QPU.Topology.Graph(), *faults, *faults/4, rng)
	}

	q, describe, check := buildProblem(*problem, *n, *density, rng)

	cfg := core.Config{
		Node:            node,
		Accuracy:        *accuracy,
		SuccessProb:     *ps,
		Seed:            *seed,
		Sampler:         anneal.SamplerOptions{Sweeps: *sweeps},
		Embed:           embed.Options{MaxTries: 20},
		QuantizeControl: *quantize,
	}
	if *annealUs > 0 {
		sc := schedule.Linear(time.Duration(*annealUs * float64(time.Microsecond)))
		cfg.Schedule = &sc
		cfg.Gap = &schedule.GapModel{MinGap: *gapMin, Position: *gapPos}
	}
	solver := core.NewSolver(cfg)

	sol, err := solver.SolveQUBO(q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitexec: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("problem:  %s (n=%d, %d quadratic terms)\n", describe, *n, q.NumTerms())
	fmt.Printf("hardware: %v, faults: %d dead qubits\n", node.QPU.Topology, len(node.QPU.Faults.DeadQubits))
	fmt.Printf("solution: energy=%.4f reads=%d brokenChains=%d\n", sol.Energy, sol.Reads, sol.BrokenChains)
	if msg := check(sol.Binary); msg != "" {
		fmt.Printf("check:    %s\n", msg)
	}
	fmt.Printf("embedding: %d logical -> %d physical qubits (max chain %d)\n",
		q.Dim(), sol.EmbedStats.PhysicalQubits, sol.EmbedStats.MaxChainLength)

	fmt.Println("\ntime-to-solution breakdown (CPU phases: wall clock; QPU phases: hardware model):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  stage 1\ttranslate\t%v\n", sol.Timing.Translate)
	fmt.Fprintf(w, "\tminor embedding\t%v\n", sol.Timing.EmbedSearch)
	fmt.Fprintf(w, "\tparameter setting\t%v\n", sol.Timing.SetParameters)
	fmt.Fprintf(w, "\tprocessor init\t%v\n", sol.Timing.Program)
	fmt.Fprintf(w, "  stage 2\tanneal+readout\t%v\n", sol.Timing.Execute)
	fmt.Fprintf(w, "  stage 3\tsort\t%v\n", sol.Timing.Sort)
	fmt.Fprintf(w, "\tunembed\t%v\n", sol.Timing.Unembed)
	fmt.Fprintf(w, "  total\t\t%v\n", sol.Timing.Total())
	w.Flush()

	s1, s2 := sol.Timing.Stage1(), sol.Timing.Stage2()
	if s2 > 0 {
		fmt.Printf("\nstage1/stage2 ratio: %.0fx — the quantum-classical interface dominates\n",
			float64(s1)/float64(s2))
	}
}

// buildProblem constructs the requested QUBO plus a description and a
// solution checker returning a human-readable verdict.
func buildProblem(kind string, n int, density float64, rng *rand.Rand) (*qubo.QUBO, string, func([]int8) string) {
	switch kind {
	case "maxcut":
		g := graph.GNP(n, density, rng)
		return qubo.MaxCut(g, nil), "MAX-CUT on G(n,p)", func(b []int8) string {
			return fmt.Sprintf("cut value %.0f of %d edges", qubo.CutValue(g, nil, b), g.Size())
		}
	case "partition":
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(rng.Intn(50) + 1)
		}
		return qubo.NumberPartition(values), "number partitioning", func(b []int8) string {
			return fmt.Sprintf("partition residual %.0f", qubo.PartitionResidual(values, b))
		}
	case "vertexcover":
		g := graph.GNP(n, density, rng)
		return qubo.MinVertexCover(g, 4), "minimum vertex cover", func(b []int8) string {
			size := 0
			for _, x := range b {
				size += int(x)
			}
			return fmt.Sprintf("cover of size %d, valid=%v", size, qubo.IsVertexCover(g, b))
		}
	case "independentset":
		g := graph.GNP(n, density, rng)
		return qubo.MaxIndependentSet(g, 4), "maximum independent set", func(b []int8) string {
			size := 0
			for _, x := range b {
				size += int(x)
			}
			return fmt.Sprintf("independent set of size %d, valid=%v", size, qubo.IsIndependentSet(g, b))
		}
	case "random":
		return qubo.RandomQUBO(n, density, rng), "random QUBO", func([]int8) string { return "" }
	}
	fmt.Fprintf(os.Stderr, "splitexec: unknown problem %q\n", kind)
	os.Exit(2)
	return nil, "", nil
}
