package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/aspen"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/dse"
	"github.com/splitexec/splitexec/internal/embed"
	"github.com/splitexec/splitexec/internal/machine"
	"github.com/splitexec/splitexec/internal/schedule"
)

// runFigures is the `splitexec figures` subcommand: it regenerates the data
// series behind every figure in the paper's evaluation (Fig. 9a, 9b, 9c)
// and the §3.3 stage-dominance summary, printing tab-separated tables ready
// for plotting.
func runFigures(args []string) {
	fs := flag.NewFlagSet("splitexec figures", flag.ExitOnError)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: 9a, 9b, 9c, dominance, arch, tts, dse, all")
		maxN     = fs.Int("maxn", 100, "largest model-curve problem size")
		measure  = fs.Int("measure", 20, "largest size for wall-clock CMR measurement (fig 9a)")
		ps       = fs.Float64("ps", 0.7, "single-run success probability (fig 9b)")
		seed     = fs.Int64("seed", 1, "random seed")
		maxTries = fs.Int("tries", 10, "CMR restart budget")
		workers  = fs.Int("workers", 0, "worker pool size for sweeps and measurements (0 = all cores)")
	)
	fs.Parse(args)
	node := machine.SimpleNode()

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "splitexec figures: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("9a", func() error { return fig9a(node, *maxN, *measure, *seed, *maxTries, *workers) })
	run("9b", func() error { return fig9b(node, *ps) })
	run("9c", func() error { return fig9c(node, *maxN, *seed) })
	run("dominance", func() error { return dominance(node, *ps) })
	run("arch", func() error { return architectures(node, *ps) })
	run("tts", func() error { return ttsCurve() })
	run("dse", func() error { return designSpace(node, *workers) })
}

// ttsCurve prints the time-to-solution U-curve across the hardware's anneal
// duration range (the §2.2 schedule extension).
func ttsCurve() error {
	gap := schedule.DefaultGap()
	lim := schedule.DW2Limits()
	perRead := 325 * time.Microsecond
	fmt.Println("# extension (§2.2): TTS vs linear anneal duration, pa=0.99")
	fmt.Printf("# gap model: Δ=%.3g at s*=%.2f; per-read overhead %v\n", gap.MinGap, gap.Position, perRead)
	fmt.Println("anneal_us\tps\treads\ttts_us")
	curve, err := schedule.SweepTTS(gap, 0.99, lim.MinDuration, lim.MaxDuration, 24, perRead)
	if err != nil {
		return err
	}
	for _, r := range curve {
		fmt.Printf("%.2f\t%.4f\t%d\t%.1f\n",
			float64(r.AnnealTime)/float64(time.Microsecond), r.Ps, r.Reads,
			float64(r.Total)/float64(time.Microsecond))
	}
	best, tts, err := schedule.OptimalAnnealTime(gap, 0.99, lim, perRead)
	if err != nil {
		return err
	}
	fmt.Printf("# optimum: %v anneal -> TTS %v (hardware default 20µs -> %v)\n",
		best.Round(time.Microsecond), tts.Round(time.Microsecond), defaultTTS(gap, perRead))
	fmt.Println()
	return nil
}

func defaultTTS(gap schedule.GapModel, perRead time.Duration) time.Duration {
	ps, err := schedule.SuccessProbability(schedule.Linear(20*time.Microsecond), gap)
	if err != nil {
		return 0
	}
	tts, err := schedule.TTS(20*time.Microsecond, ps, 0.99, perRead)
	if err != nil {
		return 0
	}
	return tts.Round(time.Microsecond)
}

// designSpace prints the DSE view of the stage-1 model: the LPS sweep, the
// sensitivity ranking at n=50, and the 1-second-budget crossover. All
// three run on the parallel exploration engine.
func designSpace(node machine.Node, workers int) error {
	spec, err := nodeSpec(node)
	if err != nil {
		return err
	}
	s1, _, _, err := core.ParseStageModels()
	if err != nil {
		return err
	}
	obj := dse.ModelObjective(s1, spec, aspen.EvalOptions{
		HostSocket: node.CPU.Name,
		Params:     map[string]float64{"M": 12, "N": 12},
	})
	pool := dse.SweepOptions{Workers: workers}
	fmt.Println("# extension (ref. [37]): design-space exploration of the stage-1 model")
	fmt.Println("LPS\tpredicted_s")
	tbl, err := dse.SweepOpt(obj, []dse.Axis{{Name: "LPS", Values: dse.LinSpace(10, 100, 10)}}, pool)
	if err != nil {
		return err
	}
	for _, r := range tbl.Rows {
		fmt.Printf("%.0f\t%.6g\n", r.Params["LPS"], r.Value)
	}
	sens, err := dse.SensitivitiesOpt(obj, map[string]float64{"LPS": 50, "M": 12, "N": 12}, 0.02, pool)
	if err != nil {
		return err
	}
	fmt.Println("# sensitivity at LPS=50 (elasticity d logT / d logp):")
	for _, s := range sens {
		fmt.Printf("# %6s\t%+.3f\n", s.Param, s.Elasticity)
	}
	budget := func(map[string]float64) (float64, error) { return 1.0, nil }
	n, err := dse.CrossoverOpt(obj, budget, "LPS", 1, 100, map[string]float64{"M": 12, "N": 12}, 1e-6, pool)
	if err != nil {
		return err
	}
	fmt.Printf("# stage-1 exceeds a 1-second budget beyond n = %.1f\n\n", n)
	return nil
}

// architectures compares the three Fig. 1 deployments on a stage-model-
// derived job profile (the Britt & Humble comparison the paper cites).
func architectures(node machine.Node, ps float64) error {
	pred := core.NewPredictor(node)
	s, err := pred.Predict(30, 0.99, ps)
	if err != nil {
		return err
	}
	init := node.QPU.Timings.ProcessorInitialize()
	profile := arch.JobProfile{
		PreProcess:  secsToDur(s.Stage1) - init, // classical part of stage 1
		Network:     10 * time.Microsecond,      // LAN one-way
		QPUService:  init + secsToDur(s.Stage2), // programming + annealing
		PostProcess: secsToDur(s.Stage3),
	}
	fmt.Println("# Fig 1(a/b/c): architecture comparison, 64 jobs of size n=30, 8 hosts")
	fmt.Println("# job profile from the stage models: pre-process", profile.PreProcess,
		"| QPU service", profile.QPUService)
	fmt.Println("architecture\tmakespan\tjobs_per_s\tspeedup_vs_a")
	rows, err := arch.Compare(profile, 64, 8)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%s\t%v\t%.3f\t%.2fx\n", r.System.Kind, r.Makespan, r.Throughput, r.Speedup)
	}
	fmt.Println()
	return nil
}

func secsToDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func fig9a(node machine.Node, maxN, measure int, seed int64, tries, workers int) error {
	fmt.Println("# Fig 9(a): stage-1 time vs input size n (complete graph K_n)")
	fmt.Println("# model = ASPEN worst-case prediction (solid line)")
	fmt.Println("# measured = wall-clock Cai-Macready-Roy embedding on this host (dashed line)")
	if workers != 1 {
		fmt.Println("# note: measurements run concurrently; pass -workers 1 for contention-free timings")
	}
	fmt.Println("n\tmodel_s\tmeasured_s\tphys_qubits\tmax_chain")
	var ns []int
	for n := 1; n <= maxN; n += stepFor(n) {
		ns = append(ns, n)
	}
	pts, err := core.Fig9a(ns, node, core.Fig9aOptions{
		MeasureUpTo: measure,
		Seed:        seed,
		Embed:       embed.Options{MaxTries: tries},
		Workers:     workers,
	})
	if err != nil {
		return err
	}
	for _, p := range pts {
		if p.MeasuredOK {
			fmt.Printf("%d\t%.6g\t%.6g\t%d\t%d\n", p.N, p.ModelSeconds, p.MeasuredSecs, p.PhysicalQubits, p.MaxChain)
		} else {
			fmt.Printf("%d\t%.6g\t-\t-\t-\n", p.N, p.ModelSeconds)
		}
	}
	if k, r2, err := core.ScalingExponent(pts); err == nil {
		fmt.Printf("# model power-law fit: t ~ n^%.2f (R²=%.3f)\n", k, r2)
	}
	fmt.Println()
	return nil
}

func fig9b(node machine.Node, ps float64) error {
	fmt.Println("# Fig 9(b): stage-2 time vs desired accuracy pa")
	fmt.Printf("# single-run success probability ps = %v\n", ps)
	fmt.Println("accuracy\treads\tmodel_s")
	accs := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999}
	pts, err := core.Fig9b(accs, ps, node)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%.4f\t%d\t%.6g\n", p.Accuracy, p.Reads, p.ModelSeconds)
	}
	fmt.Println()
	return nil
}

func fig9c(node machine.Node, maxN int, seed int64) error {
	fmt.Println("# Fig 9(c): stage-3 (sort) time vs input size")
	fmt.Println("n\tresults\tmodel_s\tmeasured_s\tcomparisons")
	var ns []int
	for n := 1; n <= maxN; n += stepFor(n) {
		ns = append(ns, n)
	}
	pts, err := core.Fig9c(ns, node, seed)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%d\t%d\t%.6g\t%.6g\t%d\n", p.N, p.Results, p.ModelSeconds, p.MeasuredSecs, p.Comparisons)
	}
	fmt.Println()
	return nil
}

func dominance(node machine.Node, ps float64) error {
	fmt.Println("# §3.3: per-stage predicted time and stage-1 share (pa=0.99)")
	fmt.Println("n\tstage1_s\tstage2_s\tstage3_s\tstage1_share")
	rows, err := core.StageDominance([]int{5, 10, 20, 30, 50, 75, 100}, 0.99, ps, node)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%d\t%.6g\t%.6g\t%.6g\t%.6f\n",
			r.N, r.Stages.Stage1, r.Stages.Stage2, r.Stages.Stage3, r.Stage1Share)
	}
	fmt.Println()
	return nil
}

// stepFor thins out the sweep at large n to keep output compact.
func stepFor(n int) int {
	switch {
	case n < 10:
		return 1
	case n < 30:
		return 2
	case n < 60:
		return 5
	default:
		return 10
	}
}
