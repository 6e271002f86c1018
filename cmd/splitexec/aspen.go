package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/splitexec/splitexec/internal/aspen"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/dse"
	"github.com/splitexec/splitexec/internal/machine"
)

// paramList collects repeated -param NAME=VALUE flags.
type paramList map[string]float64

func (p paramList) String() string { return fmt.Sprint(map[string]float64(p)) }

func (p paramList) Set(s string) error {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	p[parts[0]] = v
	return nil
}

// axisList collects repeated -sweep NAME=lo:hi:n / NAME=log:lo:hi:n flags.
type axisList []dse.Axis

func (a *axisList) String() string { return fmt.Sprint([]dse.Axis(*a)) }

func (a *axisList) Set(s string) error {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want NAME=lo:hi:n or NAME=log:lo:hi:n, got %q", s)
	}
	parts := strings.Split(spec, ":")
	logScale := false
	if len(parts) == 4 && parts[0] == "log" {
		logScale = true
		parts = parts[1:]
	}
	if len(parts) != 3 {
		return fmt.Errorf("want NAME=lo:hi:n or NAME=log:lo:hi:n, got %q", s)
	}
	lo, err1 := strconv.ParseFloat(parts[0], 64)
	hi, err2 := strconv.ParseFloat(parts[1], 64)
	n, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || n < 1 {
		return fmt.Errorf("bad axis spec %q", s)
	}
	values := dse.LinSpace(lo, hi, n)
	if logScale {
		if values = dse.LogSpace(lo, hi, n); values == nil {
			return fmt.Errorf("log axis %q needs positive bounds", s)
		}
	}
	*a = append(*a, dse.Axis{Name: name, Values: values})
	return nil
}

// runAspen is the `splitexec aspen` subcommand: it parses and evaluates
// ASPEN performance models, either one of the paper's built-in stage
// listings (Figs. 6–8) or a model file, against either the paper's Fig. 5
// machine (SimpleNode) or a machine declared in the same file. With one or
// more -sweep flags it switches from single-point evaluation to a parallel
// design-space sweep over the cartesian product of the axes, printing a
// TSV table and the cheapest point.
func runAspen(args []string) {
	fs := flag.NewFlagSet("splitexec aspen", flag.ExitOnError)
	params := paramList{}
	axes := axisList{}
	var (
		stage       = fs.Int("stage", 0, "evaluate the paper's stage listing (1, 2 or 3)")
		file        = fs.String("file", "", "evaluate a model from this ASPEN file")
		modelName   = fs.String("model", "", "model name when the file has several")
		machineName = fs.String("machine", "", "machine declared in the file (default: paper's SimpleNode)")
		host        = fs.String("host", "", "socket servicing flops/loads/stores (default: first)")
		overlap     = fs.Bool("overlap", false, "assume perfect overlap within execute blocks (max instead of sum)")
		workers     = fs.Int("workers", 0, "sweep worker pool size (0 = all cores)")
	)
	fs.Var(params, "param", "parameter override NAME=VALUE (repeatable)")
	fs.Var(&axes, "sweep", "sweep axis NAME=lo:hi:n or NAME=log:lo:hi:n (repeatable; switches to sweep mode)")
	fs.Parse(args)

	model, spec := loadModelAndMachine(*stage, *file, *modelName, *machineName)

	opts := aspen.EvalOptions{Params: params, HostSocket: *host}
	if *host == "" && spec.Socket(machine.XeonE5_2680().Name) != nil {
		opts.HostSocket = machine.XeonE5_2680().Name
	}
	if *overlap {
		opts.Policy = aspen.Overlap
	}

	if len(axes) > 0 {
		sweepModel(model, spec, opts, axes, *workers)
		return
	}
	res, err := aspen.Evaluate(model, spec, opts)
	if err != nil {
		fail(err)
	}

	fmt.Printf("model %s on machine %s\n\n", res.Model, res.Machine)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  kernel\tblock\tresource\tamount\tseconds")
	for _, k := range res.Kernels {
		for _, b := range k.Blocks {
			for _, r := range b.Resources {
				fmt.Fprintf(w, "  %s\t%s\t%s\t%.6g\t%.6g\n", k.Name, b.Label, r.Verb, r.Amount, r.Seconds*b.Count)
			}
		}
		fmt.Fprintf(w, "  %s\t\t= subtotal\t\t%.6g\n", k.Name, k.Seconds)
	}
	w.Flush()

	fmt.Printf("\ntotal predicted runtime: %.6g s (%v)\n", res.TotalSeconds(), res.Total())
	by := res.ByVerb()
	verbs := make([]string, 0, len(by))
	for v := range by {
		verbs = append(verbs, v)
	}
	sort.Strings(verbs)
	fmt.Println("by resource class:")
	for _, v := range verbs {
		fmt.Printf("  %-14s %.6g s\n", v, by[v])
	}
}

// sweepModel evaluates the model over the cartesian product of the axes on
// the parallel exploration engine and prints the table plus its minimum.
func sweepModel(model *aspen.ModelDecl, spec *aspen.MachineSpec, opts aspen.EvalOptions, axes []dse.Axis, workers int) {
	obj := dse.ModelObjective(model, spec, opts)
	tbl, err := dse.SweepOpt(obj, axes, dse.SweepOptions{Workers: workers})
	if err != nil {
		fail(err)
	}
	fmt.Printf("# model %s on machine %s: %d-point sweep\n", model.Name, spec.Name, len(tbl.Rows))
	for _, ax := range axes {
		fmt.Printf("%s\t", ax.Name)
	}
	fmt.Println("predicted_s")
	for _, r := range tbl.Rows {
		for _, ax := range axes {
			fmt.Printf("%.6g\t", r.Params[ax.Name])
		}
		fmt.Printf("%.6g\n", r.Value)
	}
	best, err := tbl.ArgMin()
	if err != nil {
		fail(err)
	}
	fmt.Printf("# minimum %.6g s at %v\n", best.Value, best.Params)
}

func loadModelAndMachine(stage int, file, modelName, machineName string) (*aspen.ModelDecl, *aspen.MachineSpec) {
	var f *aspen.File
	switch {
	case stage >= 1 && stage <= 3:
		s1, s2, s3, err := core.ParseStageModels()
		if err != nil {
			fail(err)
		}
		spec := defaultMachine()
		switch stage {
		case 1:
			return s1, spec
		case 2:
			return s2, spec
		default:
			return s3, spec
		}
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			fail(err)
		}
		f, err = aspen.ParseWithIncludes(string(src), aspen.StdLoader)
		if err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("need -stage 1..3 or -file model.aspen"))
	}

	var model *aspen.ModelDecl
	switch {
	case modelName != "":
		for _, m := range f.Models {
			if m.Name == modelName {
				model = m
			}
		}
		if model == nil {
			fail(fmt.Errorf("model %q not found in file", modelName))
		}
	case len(f.Models) == 1:
		model = f.Models[0]
	default:
		fail(fmt.Errorf("file declares %d models; use -model", len(f.Models)))
	}

	if machineName != "" {
		spec, err := aspen.BuildMachine(f, machineName)
		if err != nil {
			fail(err)
		}
		return model, spec
	}
	return model, defaultMachine()
}

func defaultMachine() *aspen.MachineSpec {
	spec, err := nodeSpec(machine.SimpleNode())
	if err != nil {
		fail(err)
	}
	return spec
}

// nodeSpec resolves a hardware node model into the ASPEN machine spec the
// aspen and figures subcommands evaluate models against.
func nodeSpec(node machine.Node) (*aspen.MachineSpec, error) {
	f, err := aspen.Parse(node.ToAspen())
	if err != nil {
		return nil, err
	}
	return aspen.BuildMachine(f, node.Name)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "splitexec aspen: %v\n", err)
	os.Exit(1)
}
