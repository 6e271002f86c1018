//go:build !race

package graph

// raceEnabled reports whether this test binary was built with -race; the
// allocation budgets skip under instrumentation, which allocates.
const raceEnabled = false
