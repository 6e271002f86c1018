package aspen_test

import (
	"testing"

	"github.com/splitexec/splitexec/internal/aspen"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/machine"
)

// FuzzParseAspen drives the front end `splitexec aspen -file` reads: any
// source either errors or parses, resolves its machines and evaluates
// every model against each of them and against the paper's SimpleNode,
// never panicking.
func FuzzParseAspen(f *testing.F) {
	for _, src := range []string{
		core.Stage1Source, core.Stage2Source, core.Stage3Source,
		machine.SimpleNode().ToAspen(),
		// Sources TestParseErrors rejects.
		"model {",
		"model M { param = 3 }",
		"model M { kernel main { execute } }",
		"model M { data D as List(3,4) }",
		"machine M { [1] N widgets }",
		"gadget G {}",
		"model M { param x = }",
	} {
		f.Add(src)
	}
	// The expressions TestExprErrors rejects, as a parameter a kernel uses:
	// the first three fail to parse, the rest fail to evaluate.
	for _, expr := range []string{"1 +", "(1", "1 2", "1/0", "nosuch(1)", "log(1,2)"} {
		f.Add("model M { param x = " + expr + "\n kernel main { execute [1] { microseconds [x] } } }")
	}
	simple, err := aspen.LoadSimpleNode()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := aspen.ParseWithIncludes(src, aspen.StdLoader)
		if err != nil {
			return
		}
		specs := []*aspen.MachineSpec{simple}
		for _, m := range file.Machines {
			if spec, err := aspen.BuildMachine(file, m.Name); err == nil {
				specs = append(specs, spec)
			}
		}
		for _, model := range file.Models {
			for _, spec := range specs {
				aspen.Evaluate(model, spec, aspen.EvalOptions{})
			}
		}
	})
}
