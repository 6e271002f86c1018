package storm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/des"
	"github.com/splitexec/splitexec/internal/loadgen"
	"github.com/splitexec/splitexec/internal/obs"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/workload"
)

// writeCorpus drops scenario files into a temp dir and returns it.
func writeCorpus(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// tinyScenario is a seconds-scale live-replayable scenario with a wide band
// (unit tests must not flake on a loaded CI core).
const tinyScenario = `{
  "name": "tiny",
  "seed": 13,
  "arrival": {"kind": "poisson", "rate": 50},
  "mix": [{"name": "base", "weight": 1,
           "profile": {"preProcess": "1ms", "qpuService": "400µs", "postProcess": "200µs"}}],
  "system": {"kind": "shared", "hosts": 2},
  "horizon": {"jobs": 30},
  "band": {"lo": 0.1, "hi": 50}
}`

// TestStormRunTiny drives the full predict→replay→judge pipeline over
// loopback TCP on a one-scenario corpus.
func TestStormRunTiny(t *testing.T) {
	dir := writeCorpus(t, map[string]string{"tiny.json": tinyScenario})
	var log bytes.Buffer
	rep, err := Run(Options{Dir: dir, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("ran %d scenarios, want 1", len(rep.Scenarios))
	}
	res := rep.Scenarios[0]
	if !res.Pass || !rep.Pass {
		t.Fatalf("tiny scenario failed: %+v\nlog:\n%s", res, log.String())
	}
	if res.Jobs+res.Failed != 30 {
		t.Errorf("client ledger %d + %d != 30 admitted", res.Jobs, res.Failed)
	}
	if res.DESP99 <= 0 || res.LiveP99 <= 0 || res.Ratio <= 0 {
		t.Errorf("degenerate measurements: %+v", res)
	}
	// The report is CI-consumable JSON.
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("report not round-trippable: %v", err)
	}
	if round.Pass != rep.Pass || len(round.Scenarios) != 1 {
		t.Errorf("report round trip changed the verdict")
	}
}

// TestStormQuickPicksCheapest: Quick mode must deterministically run only
// the scenario with the fewest horizon jobs.
func TestStormQuickPicksCheapest(t *testing.T) {
	expensive := `{
  "name": "expensive", "seed": 1,
  "arrival": {"kind": "poisson", "rate": 50},
  "mix": [{"name": "base", "weight": 1, "profile": {"preProcess": "1ms", "qpuService": "400µs"}}],
  "system": {"kind": "shared", "hosts": 2},
  "horizon": {"jobs": 500},
  "band": {"lo": 0.1, "hi": 50}
}`
	dir := writeCorpus(t, map[string]string{
		// Lexicographically before tiny.json, so a naive "first file" pick
		// would choose wrong.
		"aaa-expensive.json": expensive,
		"tiny.json":          tinyScenario,
	})
	rep, err := Run(Options{Dir: dir, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 || rep.Scenarios[0].Name != "tiny" {
		t.Fatalf("quick ran %+v, want only the cheapest (tiny)", rep.Scenarios)
	}
}

// TestStormBadCorpus: an empty directory and an invalid scenario are errors,
// not silent passes.
func TestStormBadCorpus(t *testing.T) {
	if _, err := Run(Options{Dir: t.TempDir()}); err == nil {
		t.Error("empty corpus passed")
	}
	dir := writeCorpus(t, map[string]string{"bad.json": `{"arrival":{"kind":"warp"}}`})
	if _, err := Run(Options{Dir: dir}); err == nil {
		t.Error("invalid scenario passed")
	}
}

// TestStormLedgerLeakFails: a scenario whose band is impossible must fail
// after exactly the attempt budget — the retry loop must not spin forever.
func TestStormImpossibleBandFails(t *testing.T) {
	impossible := `{
  "name": "impossible", "seed": 3,
  "arrival": {"kind": "poisson", "rate": 50},
  "mix": [{"name": "base", "weight": 1, "profile": {"preProcess": "1ms", "qpuService": "400µs"}}],
  "system": {"kind": "shared", "hosts": 2},
  "horizon": {"jobs": 10},
  "band": {"lo": 1e-9, "hi": 2e-9}
}`
	dir := writeCorpus(t, map[string]string{"impossible.json": impossible})
	rep, err := Run(Options{Dir: dir, Attempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || rep.Scenarios[0].Pass {
		t.Fatal("impossible band passed")
	}
	if rep.Scenarios[0].Attempts != 2 {
		t.Errorf("consumed %d attempts, want the full budget of 2", rep.Scenarios[0].Attempts)
	}
}

// TestStormObsSelfScrape: with ObsAddr set the runner serves its own admin
// endpoint during the replay, scrapes /metrics + /healthz afterwards, and
// records the verdict — the CI configuration of the storm smoke.
func TestStormObsSelfScrape(t *testing.T) {
	dir := writeCorpus(t, map[string]string{"tiny.json": tinyScenario})
	rep, err := Run(Options{Dir: dir, ObsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Scenarios[0]
	if !res.Pass {
		t.Fatalf("tiny scenario failed under -obs: %+v", res)
	}
	if res.Obs != "ok" {
		t.Fatalf("self-scrape verdict %q, want ok", res.Obs)
	}
}

// TestStormMembershipReplay is the live elastic-membership acceptance at
// the storm layer: a scenario that joins a third shard mid-run and then
// drains shard 0 replays against a real router over loopback TCP, fires
// the AddShard/DrainShard hooks from the schedule, and must conserve the
// job ledger across both epoch flips while the live p99 stays inside the
// DES band.
func TestStormMembershipReplay(t *testing.T) {
	elastic := `{
  "name": "elastic", "seed": 29,
  "arrival": {"kind": "poisson", "rate": 120},
  "mix": [
    {"name": "alpha", "weight": 1, "profile": {"preProcess": "400µs", "qpuService": "3ms", "postProcess": "200µs"}},
    {"name": "beta",  "weight": 1, "profile": {"preProcess": "400µs", "qpuService": "3ms", "postProcess": "200µs"}},
    {"name": "gamma", "weight": 1, "profile": {"preProcess": "400µs", "qpuService": "3ms", "postProcess": "200µs"}},
    {"name": "delta", "weight": 1, "profile": {"preProcess": "400µs", "qpuService": "3ms", "postProcess": "200µs"}}
  ],
  "system": {"kind": "dedicated", "hosts": 2},
  "horizon": {"jobs": 80},
  "cluster": {"shards": 2, "stealThreshold": 4,
    "events": [
      {"kind": "join", "shard": 2, "at": "150ms"},
      {"kind": "drain", "shard": 0, "at": "400ms"}
    ]},
  "band": {"lo": 0.1, "hi": 50}
}`
	dir := writeCorpus(t, map[string]string{"elastic.json": elastic})
	var log bytes.Buffer
	rep, err := Run(Options{Dir: dir, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Scenarios[0]
	if !res.Pass {
		t.Fatalf("elastic scenario failed: %+v\nlog:\n%s", res, log.String())
	}
	if res.Jobs+res.Failed != 80 {
		t.Errorf("client ledger %d + %d != 80 admitted across the epoch flips", res.Jobs, res.Failed)
	}
	if res.Failed != 0 {
		t.Errorf("%d jobs failed during graceful membership transitions", res.Failed)
	}
	if strings.Contains(log.String(), "storm: join shard=") || strings.Contains(log.String(), "storm: drain shard=") {
		t.Errorf("membership hooks errored:\n%s", log.String())
	}
}

// TestObsReconciliation is the acceptance check for the telemetry layer: a
// live replay's final /metrics counters must reconcile exactly with the
// service's own drain-report ledger — same events, two exports, one story.
func TestObsReconciliation(t *testing.T) {
	sc, err := workload.Decode([]byte(tinyScenario))
	if err != nil {
		t.Fatal(err)
	}
	scope := obs.NewScope()
	svc, err := service.New(service.Options{
		Workers:    sc.System.Hosts,
		Fleet:      sc.System.QPUs(),
		QueueDepth: sc.Horizon.Jobs,
		Obs:        scope,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		svc.Drain()
		t.Fatal(err)
	}
	if _, err := loadgen.Run(sc, loadgen.Options{Addr: addr.String(), Conns: 8, Timeout: 30 * time.Second}); err != nil {
		svc.Drain()
		t.Fatal(err)
	}
	drained := svc.Drain()

	var buf bytes.Buffer
	if err := scope.Reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	sample := func(name string) int64 {
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					t.Fatalf("unparsable sample %q: %v", line, err)
				}
				return int64(v)
			}
		}
		t.Fatalf("series %s missing from exposition:\n%s", name, text)
		return 0
	}
	if got := sample("splitexec_jobs_submitted_total"); got != int64(drained.Submitted) {
		t.Errorf("submitted counter %d != drain report %d", got, drained.Submitted)
	}
	if got := sample("splitexec_jobs_completed_total"); got != int64(drained.Jobs) {
		t.Errorf("completed counter %d != drain report %d", got, drained.Jobs)
	}
	if got := sample("splitexec_jobs_failed_total"); got != int64(drained.Failed) {
		t.Errorf("failed counter %d != drain report %d", got, drained.Failed)
	}
	// Submitted = Jobs + Failed: the counters must conserve the ledger too.
	if s, c, f := sample("splitexec_jobs_submitted_total"), sample("splitexec_jobs_completed_total"),
		sample("splitexec_jobs_failed_total"); s != c+f {
		t.Errorf("counter ledger leak: %d submitted != %d completed + %d failed", s, c, f)
	}
	if got := sample("splitexec_sojourn_seconds_count"); got != int64(drained.Jobs) {
		t.Errorf("sojourn histogram count %d != %d completed", got, drained.Jobs)
	}
	if got := sample("splitexec_queue_depth"); got != 0 {
		t.Errorf("queue depth %d after drain, want 0", got)
	}
}

// unloadedTargets names each shard fault victim and each joiner that is the
// ring home of no mix class at the membership it meets: a fault there
// aborts nothing and a joiner there takes no traffic, so the scenario would
// not exercise what it names. Events are strictly ordered in time and joins
// claim fresh slots in order, so appending a joiner keeps the slots
// ascending.
func unloadedTargets(sc *workload.Scenario) []string {
	if sc.Cluster == nil {
		return nil
	}
	slots := make([]int, sc.ShardCount())
	for i := range slots {
		slots[i] = i
	}
	isHome := func(shard int) bool {
		table := workload.NewRouteTable(slots, sc.Cluster.Replicas)
		for class := range sc.Mix {
			if home, _ := table.Route(workload.ClassKey(class), 0, -1, nil); home == shard {
				return true
			}
		}
		return false
	}
	var out []string
	var fault *workload.ShardFault
	if sc.HasShardFault() {
		fault = sc.Faults.Shard
	}
	checkFault := func() {
		if !isHome(fault.Shard) {
			out = append(out, fmt.Sprintf("shard fault victim %d at %d members", fault.Shard, len(slots)))
		}
		fault = nil
	}
	for _, e := range sc.Cluster.Events {
		if fault != nil && fault.At < e.At {
			checkFault()
		}
		switch e.Kind {
		case workload.JoinEvent:
			slots = append(slots, e.Shard)
			if !isHome(e.Shard) {
				out = append(out, fmt.Sprintf("joiner %d at %d members", e.Shard, len(slots)))
			}
		case workload.DrainEvent:
			slots = slices.DeleteFunc(slots, func(s int) bool { return s == e.Shard })
		}
	}
	if fault != nil {
		checkFault()
	}
	return out
}

// TestRealCorpusShape validates the shipped scenarios/ corpus without live
// replay: every file decodes, declares a band, and its DES prediction
// completes with a conserved ledger. Every shard fault victim and every
// joiner is the ring home of at least one class at the membership it meets.
// The live halves are covered by the `splitexec storm -quick` CI smoke and
// the full soak run.
func TestRealCorpusShape(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(files) < 8 {
		t.Fatalf("corpus glob: %d files, err %v (want >= 8)", len(files), err)
	}
	seen := map[string]bool{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := workload.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(f), err)
		}
		if sc.Name == "" || seen[sc.Name] {
			t.Errorf("%s: missing or duplicate scenario name %q", filepath.Base(f), sc.Name)
		}
		seen[sc.Name] = true
		if sc.Band == nil {
			t.Errorf("%s: corpus scenarios must declare their acceptance band", filepath.Base(f))
		}
		for _, target := range unloadedTargets(sc) {
			t.Errorf("%s: %s is the ring home of no class", filepath.Base(f), target)
		}
		r, err := des.Simulate(sc, des.Options{})
		if err != nil {
			t.Fatalf("%s: DES: %v", filepath.Base(f), err)
		}
		if r.Jobs+r.Failed != r.Admitted {
			t.Errorf("%s: DES ledger leak: %d + %d != %d", filepath.Base(f), r.Jobs, r.Failed, r.Admitted)
		}
		if r.Sojourn.P99 <= 0 {
			t.Errorf("%s: degenerate DES p99 %v", filepath.Base(f), r.Sojourn.P99)
		}
		// The corpus is sized for CI: a scenario's virtual span must stay
		// seconds-scale so the live replay finishes promptly.
		if r.End > 10*time.Second {
			t.Errorf("%s: virtual span %v too long for a CI soak", filepath.Base(f), r.End)
		}
	}
}
