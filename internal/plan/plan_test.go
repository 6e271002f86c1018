package plan

import (
	"strings"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/des"
	"github.com/splitexec/splitexec/internal/sched"
	"github.com/splitexec/splitexec/internal/workload"
)

// planScenario is a single-class exponential Poisson workload (the M/M/c
// envelope, so the analytic cross-check attaches) at 1200 jobs/s against
// 1 ms jobs — one dedicated host saturates (rho = 1.2), two run at 0.6.
func planScenario(jobs int) *workload.Scenario {
	return &workload.Scenario{
		Name:    "plan-test",
		Seed:    17,
		Arrival: workload.Arrival{Kind: workload.Poisson, Rate: 1200},
		Mix: []workload.JobClass{{
			Name: "exp", Weight: 1, Dist: workload.Exponential,
			Profile: workload.Profile{
				PreProcess:  workload.Duration(500 * time.Microsecond),
				QPUService:  workload.Duration(300 * time.Microsecond),
				PostProcess: workload.Duration(200 * time.Microsecond),
			},
		}},
		System:  workload.SystemSpec{Kind: "dedicated", Hosts: 1},
		Horizon: workload.Horizon{Jobs: jobs},
	}
}

// TestCapacityFindsTightFrontier is the acceptance gate: the planner's best
// configuration must meet the SLO in simulation and its next-cheaper
// neighbor must not.
func TestCapacityFindsTightFrontier(t *testing.T) {
	sc := planScenario(40_000)
	target := Target{P99Sojourn: 10 * time.Millisecond}
	p, err := Capacity(sc, target, Space{Hosts: []int{1, 2, 3, 4, 6, 8}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Best == nil {
		t.Fatalf("no satisfying configuration found; evaluated %d candidates", len(p.Evaluated))
	}
	t.Logf("best: %s/%s hosts=%d qpus=%d cost=%.0f p99=%v",
		p.Best.Kind, p.Best.Policy, p.Best.Hosts, p.Best.QPUs, p.Best.Cost, p.Best.Result.Sojourn.P99)
	if !p.Best.Meets || p.Best.Result.Sojourn.P99 > target.P99Sojourn {
		t.Errorf("best candidate does not meet the target: %+v", p.Best)
	}
	// Re-simulate independently: the planner's verdict must reproduce.
	check := *sc
	check.System = workload.SystemSpec{Kind: p.Best.Kind, Hosts: p.Best.Hosts}
	check.Policy = p.Best.Policy
	r, err := des.Simulate(&check, des.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sojourn.P99 > target.P99Sojourn {
		t.Errorf("re-simulated p99 %v misses the %v SLO", r.Sojourn.P99, target.P99Sojourn)
	}
	if p.Best.Hosts > 1 {
		if p.NextCheaper == nil {
			t.Fatalf("best uses %d hosts but no next-cheaper neighbor was reported", p.Best.Hosts)
		}
		if p.NextCheaper.Meets {
			t.Errorf("next-cheaper neighbor %+v meets the target — the frontier is not tight", p.NextCheaper)
		}
		if p.NextCheaper.Cost >= p.Best.Cost {
			t.Errorf("next-cheaper neighbor costs %.0f >= best %.0f", p.NextCheaper.Cost, p.Best.Cost)
		}
	}
	// The M/M/c envelope applies (dedicated, poisson, single exp class),
	// so the analytic cross-check must be attached and agree on the mean.
	if p.Best.Analytic == nil {
		t.Fatal("no analytic cross-check on an M/M/c-eligible candidate")
	}
	ratio := float64(p.Best.Result.Sojourn.Mean) / float64(p.Best.Analytic.SojournMean)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("simulated mean %v vs analytic %v (ratio %.3f)",
			p.Best.Result.Sojourn.Mean, p.Best.Analytic.SojournMean, ratio)
	}
}

// TestCapacityUtilizationTarget plans for headroom instead of latency.
func TestCapacityUtilizationTarget(t *testing.T) {
	sc := planScenario(20_000)
	p, err := Capacity(sc, Target{MaxHostBusy: 0.5}, Space{Hosts: []int{1, 2, 3, 4, 6}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Best == nil {
		t.Fatal("no configuration met a 50% utilization ceiling")
	}
	// rho = 1.2/hosts: hosts=3 gives 0.4, hosts=2 gives 0.6.
	if p.Best.Hosts != 3 {
		t.Errorf("best hosts = %d, want 3 (rho = 1.2/hosts <= 0.5)", p.Best.Hosts)
	}
	if p.NextCheaper == nil || p.NextCheaper.Hosts != 2 {
		t.Errorf("next cheaper = %+v, want the 2-host point", p.NextCheaper)
	}
}

// TestCapacityPolicyAxis sweeps policies too: every policy axis must yield
// a satisfying point on this workload and the evaluated frontier must cover
// all of them.
func TestCapacityPolicyAxis(t *testing.T) {
	sc := planScenario(15_000)
	sc.System.Kind = "shared"
	p, err := Capacity(sc, Target{MeanSojourn: 20 * time.Millisecond},
		Space{Hosts: []int{2, 4, 8}, Kinds: []string{"shared"}, Policies: sched.Policies()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Best == nil {
		t.Fatal("no satisfying configuration")
	}
	seen := map[sched.Policy]bool{}
	for _, c := range p.Evaluated {
		seen[c.Policy] = true
	}
	for _, pol := range sched.Policies() {
		if !seen[pol] {
			t.Errorf("policy %q never evaluated", pol)
		}
	}
}

// TestCapacityInheritsScenarioPolicy: with no policy axis, the planner
// searches under the discipline the scenario itself declares.
func TestCapacityInheritsScenarioPolicy(t *testing.T) {
	sc := planScenario(8_000)
	sc.Policy = sched.Priority
	p, err := Capacity(sc, Target{MeanSojourn: 20 * time.Millisecond}, Space{Hosts: []int{1, 2, 4}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Best == nil || p.Best.Policy != sched.Priority {
		t.Fatalf("best = %+v, want a satisfying configuration under the scenario's priority policy", p.Best)
	}
}

// TestCapacityUnsatisfiable: a target below the service time itself cannot
// be met at any fleet size; the plan must say so instead of guessing.
func TestCapacityUnsatisfiable(t *testing.T) {
	sc := planScenario(5_000)
	p, err := Capacity(sc, Target{P99Sojourn: 100 * time.Microsecond}, Space{Hosts: []int{1, 2, 4}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Best != nil {
		t.Errorf("impossible SLO reported satisfiable: %+v", p.Best)
	}
	if len(p.Evaluated) == 0 {
		t.Error("no candidates evaluated")
	}
	for _, c := range p.Evaluated {
		if c.Meets || len(c.Unmet) == 0 {
			t.Errorf("candidate %+v claims to meet an impossible SLO", c)
		}
	}
}

// TestCapacityHorizonOverride: Options.HorizonJobs replaces a thin scenario
// horizon for the planning runs without touching the caller's scenario.
func TestCapacityHorizonOverride(t *testing.T) {
	sc := planScenario(50)
	p, err := Capacity(sc, Target{MaxHostBusy: 0.7}, Space{Hosts: []int{2, 4}}, Options{HorizonJobs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Horizon.Jobs != 50 {
		t.Errorf("caller's scenario horizon mutated to %d", sc.Horizon.Jobs)
	}
	for _, c := range p.Evaluated {
		if c.Result.Jobs != 5000 {
			t.Errorf("candidate simulated %d jobs, want the 5000-job override", c.Result.Jobs)
		}
	}
}

func TestCapacityRejects(t *testing.T) {
	sc := planScenario(1000)
	if _, err := Capacity(sc, Target{}, Space{}, Options{}); err == nil || !strings.Contains(err.Error(), "empty target") {
		t.Errorf("empty target accepted: %v", err)
	}
	if _, err := Capacity(sc, Target{MaxHostBusy: 1.5}, Space{}, Options{}); err == nil {
		t.Error("utilization > 1 accepted")
	}
	if _, err := Capacity(sc, Target{P99Sojourn: time.Second}, Space{Hosts: []int{0, 2}}, Options{}); err == nil {
		t.Error("hosts=0 accepted")
	}
	if _, err := Capacity(sc, Target{P99Sojourn: time.Second}, Space{Kinds: []string{"mesh"}}, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Capacity(sc, Target{P99Sojourn: time.Second}, Space{Policies: []sched.Policy{"lifo"}}, Options{}); err == nil {
		t.Error("unknown policy accepted")
	}
	bad := planScenario(1000)
	bad.Mix = nil
	if _, err := Capacity(bad, Target{P99Sojourn: time.Second}, Space{}, Options{}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestCapacityDeterministic: two identical runs produce identical plans.
func TestCapacityDeterministic(t *testing.T) {
	run := func() string {
		p, err := Capacity(planScenario(10_000), Target{P99Sojourn: 15 * time.Millisecond},
			Space{Hosts: []int{1, 2, 4, 8}, Kinds: []string{"shared", "dedicated"}, Policies: sched.Policies()}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, c := range p.Evaluated {
			fmtCandidate(&b, c)
		}
		if p.Best != nil {
			fmtCandidate(&b, *p.Best)
		}
		return b.String()
	}
	if a, b := run(), run(); a != b {
		t.Error("planner output not deterministic across runs")
	}
}

func fmtCandidate(b *strings.Builder, c Candidate) {
	b.WriteString(c.Kind)
	b.WriteString(string(c.Policy))
	b.WriteString(c.Result.String())
	b.WriteByte('\n')
}
