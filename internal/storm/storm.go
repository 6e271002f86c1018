// Package storm is the soak-test runner over the adversarial scenario
// corpus: for every scenario file in a directory it predicts the latency
// distributions with the discrete-event simulator, then replays the same
// scenario — faults included — against a live dispatch service over real
// TCP, and checks that the measured p99 sojourn lands inside the scenario's
// declared DES-vs-live acceptance band and that the completion ledger
// conserves jobs (completed + failed == submitted). It is the engine behind
// `splitexec storm` and the end-to-end gate that keeps the simulator, the
// live service and the fault-injection machinery telling the same story.
package storm

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/splitexec/splitexec/internal/des"
	"github.com/splitexec/splitexec/internal/loadgen"
	"github.com/splitexec/splitexec/internal/obs"
	"github.com/splitexec/splitexec/internal/router"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/workload"
)

// DefaultBand is the acceptance band a scenario gets when it declares none:
// live p99 sojourn within [0.5, 2.5] × the DES prediction. Scenario files
// narrow or widen it per their own noise regime via the "band" field.
var DefaultBand = workload.Band{Lo: 0.5, Hi: 2.5}

// Options configure a storm run.
type Options struct {
	// Dir is the scenario corpus directory; every *.json file in it is one
	// scenario (lexicographic order).
	Dir string
	// Quick runs only the corpus's cheapest scenario (fewest horizon jobs,
	// ties broken by name) — the CI smoke configuration.
	Quick bool
	// Scenario, when non-empty, restricts the run to corpus entries whose
	// scenario name or file name (with or without .json) matches exactly.
	// Applied before Quick, so -quick -scenario X smoke-tests X itself.
	Scenario string
	// Attempts is the per-scenario retry budget for the band check: tail
	// latency under injected chaos is noisy, so a scenario passes if any
	// attempt lands in band. Values <= 0 select 3.
	Attempts int
	// Log, when non-nil, receives one progress line per attempt.
	Log io.Writer
	// ObsAddr, when non-empty, serves the telemetry admin endpoint on that
	// address during every live replay attempt and turns the storm run into
	// its own observability gate: after each replay drains, the runner
	// scrapes its own /metrics and /healthz and fails the scenario if the
	// exposition is malformed or the health document undecodable. Use
	// "127.0.0.1:0" so successive attempts never collide on a port.
	ObsAddr string
}

// ScenarioResult is the verdict for one corpus scenario.
type ScenarioResult struct {
	Name string `json:"name"`
	File string `json:"file"`
	Pass bool   `json:"pass"`
	// Attempts is how many live replays the verdict consumed.
	Attempts int `json:"attempts"`
	// DESP99 and LiveP99 are the predicted and measured p99 sojourns of
	// the deciding attempt; Ratio is live over predicted, checked against
	// Band.
	DESP99  time.Duration `json:"desP99"`
	LiveP99 time.Duration `json:"liveP99"`
	Ratio   float64       `json:"ratio"`
	Band    workload.Band `json:"band"`
	// Ledger of the deciding attempt: jobs completed and failed against
	// indices consumed, plus the fault counters the run realized.
	Jobs      int `json:"jobs"`
	Failed    int `json:"failed"`
	Submitted int `json:"submitted"`
	Retries   int `json:"retries,omitempty"`
	Drops     int `json:"drops,omitempty"`
	// Stolen and Redispatched cite the router-tier routing metadata of the
	// deciding attempt — jobs answered off a non-home shard, and re-dispatch
	// hops consumed recovering from shard loss. Single-shard scenarios have
	// neither. They come from the per-response wire routing stamps, so the
	// storm verdict and a live /jobz scrape describe the same decisions.
	Stolen       int `json:"stolen,omitempty"`
	Redispatched int `json:"redispatched,omitempty"`
	// Obs is the admin-endpoint self-scrape verdict when the run was started
	// with ObsAddr: "ok", or the malformation that failed the scenario.
	Obs   string `json:"obs,omitempty"`
	Error string `json:"error,omitempty"`
}

// Report is the aggregate pass/fail verdict of a storm run; it marshals to
// JSON for the -json flag and CI consumption.
type Report struct {
	Pass      bool             `json:"pass"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

// Run executes the corpus and returns the aggregate report. An unreadable
// corpus is an error; a failing scenario is a Pass=false report, not an
// error, so the caller can render the whole verdict.
func Run(opts Options) (*Report, error) {
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	scenarios, err := loadCorpus(opts.Dir)
	if err != nil {
		return nil, err
	}
	if opts.Scenario != "" {
		var keep []corpusEntry
		for _, e := range scenarios {
			if e.sc.Name == opts.Scenario || e.file == opts.Scenario ||
				e.file == opts.Scenario+".json" {
				keep = append(keep, e)
			}
		}
		if len(keep) == 0 {
			return nil, fmt.Errorf("storm: no corpus scenario matches %q", opts.Scenario)
		}
		scenarios = keep
	}
	if opts.Quick {
		scenarios = scenarios[:1]
	}
	rep := &Report{Pass: true}
	for _, entry := range scenarios {
		res := runScenario(entry, opts)
		rep.Scenarios = append(rep.Scenarios, res)
		if !res.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}

// corpusEntry pairs a decoded scenario with its source file.
type corpusEntry struct {
	file string
	sc   *workload.Scenario
}

// loadCorpus reads and validates every scenario in dir, cheapest first so
// Quick mode has a deterministic pick.
func loadCorpus(dir string) ([]corpusEntry, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("storm: no scenario files in %q", dir)
	}
	sort.Strings(files)
	entries := make([]corpusEntry, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sc, err := workload.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("storm: %s: %w", filepath.Base(f), err)
		}
		entries = append(entries, corpusEntry{file: filepath.Base(f), sc: sc})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := entries[i].sc.Horizon.Jobs, entries[j].sc.Horizon.Jobs
		if a != b {
			return a < b
		}
		return entries[i].file < entries[j].file
	})
	return entries, nil
}

// runScenario predicts, replays and judges one scenario, retrying the live
// replay up to the attempt budget.
func runScenario(entry corpusEntry, opts Options) ScenarioResult {
	sc := entry.sc
	res := ScenarioResult{Name: sc.Name, File: entry.file, Band: band(sc)}
	pred, err := des.Simulate(sc, des.Options{})
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.DESP99 = pred.Sojourn.P99
	for attempt := 1; attempt <= opts.Attempts; attempt++ {
		res.Attempts = attempt
		if err := replay(sc, pred, &res, opts); err != nil {
			res.Error = err.Error()
			return res
		}
		logf(opts.Log, "storm: %s attempt %d/%d: p99 %v vs DES %v (%.2fx, band [%.2f, %.2f]) jobs=%d failed=%d stolen=%d redispatched=%d pass=%v",
			res.Name, attempt, opts.Attempts, res.LiveP99, res.DESP99, res.Ratio, res.Band.Lo, res.Band.Hi,
			res.Jobs, res.Failed, res.Stolen, res.Redispatched, res.Pass)
		if res.Pass {
			return res
		}
	}
	return res
}

// replay brings up the scenario's deployment, serves it over loopback TCP,
// replays the workload (faults included) through the load generator,
// drains, and fills in the attempt's measurements and verdict. A
// single-shard scenario is one service. A cluster scenario brings up the
// federation: one service per shard slot behind a router front end, with
// shard faults and membership events driven through the router's hooks.
// Either way the conservation check aggregates the per-shard ledgers, so a
// job lost (or double-completed) across an epoch flip fails the scenario
// even when the latency band passes.
func replay(sc *workload.Scenario, pred *des.Result, res *ScenarioResult, opts Options) error {
	// Federated now or later: a single-shard scenario that schedules a
	// join is still a cluster replay.
	shards := sc.TotalShards()
	depth := sc.Horizon.Jobs
	if depth <= 0 {
		depth = 1024
	}
	// One telemetry scope per attempt. A lone service takes it and feeds
	// the drift alarm with its authoritative sojourns, so the generator
	// must not observe the same jobs again. In the federation the scope
	// instruments the router and the generator instead: the per-shard
	// services stay unscoped (their gauges are unlabelled, so N shards on
	// one registry would collide), and the generator — driving a remote
	// target — owns the drift-alarm feed.
	scope := replayScope(opts, sc, pred)
	svcOpts := service.Options{
		Workers:    sc.System.Hosts,
		Fleet:      sc.System.QPUs(),
		QueueDepth: depth,
		Policy:     sc.Policy,
	}
	lgScope := scope
	if shards == 1 {
		svcOpts.Obs, lgScope = scope, nil
	}
	if sc.Faults != nil {
		svcOpts.MaxRetries = sc.RetryLimit()
		svcOpts.RetryBackoff = sc.RetryBackoff()
	}
	svcs := make([]*service.Service, 0, shards)
	var rt *router.Router
	drainAll := func() (jobs, failed, submitted int) {
		if rt != nil {
			rt.Drain()
		}
		for _, svc := range svcs {
			d := svc.Drain()
			jobs += d.Jobs
			failed += d.Failed
			submitted += d.Submitted
		}
		return
	}
	addrs := make([]string, 0, shards)
	for i := 0; i < shards; i++ {
		svc, err := service.New(svcOpts)
		if err != nil {
			drainAll()
			return err
		}
		svcs = append(svcs, svc)
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			drainAll()
			return err
		}
		addrs = append(addrs, addr.String())
	}

	front := addrs[0]
	var timers []*time.Timer
	if shards > 1 {
		rtOpts := router.Options{
			Shards:         addrs[:sc.ShardCount()], // joiners enter via AddShard
			QueueDepth:     depth,
			StealThreshold: sc.StealThreshold(),
			PingEvery:      -1, // membership is driven by the fault schedule
			Obs:            scope,
		}
		if sc.Cluster != nil {
			rtOpts.Replicas = sc.Cluster.Replicas
		}
		if sc.Faults != nil {
			rtOpts.MaxRetries = sc.RetryLimit()
			rtOpts.Backoff = sc.RetryBackoff()
		}
		var err error
		if rt, err = router.New(rtOpts); err != nil {
			drainAll()
			return err
		}
		addr, err := rt.Listen("127.0.0.1:0")
		if err != nil {
			drainAll()
			return err
		}
		front = addr.String()

		// A declared shard fault is applied through the router's
		// membership hooks — FailShard interrupts the victim's in-flight
		// round trips exactly as a crashed shard would, and RestoreShard
		// re-admits it when the outage window closes — so the re-dispatch
		// machinery is exercised on the real wire.
		if sc.HasShardFault() {
			sf := sc.Faults.Shard
			timers = append(timers, time.AfterFunc(sf.At.D(), func() { rt.FailShard(sf.Shard) }))
			if sf.For > 0 {
				timers = append(timers, time.AfterFunc((sf.At+sf.For).D(), func() { rt.RestoreShard(sf.Shard) }))
			}
		}
		// The membership schedule drives the same elastic hooks `splitexec
		// admin` does: every slot a join will ever claim is provisioned up
		// front (mirroring the DES's shard table), the router starts over
		// the initial members only, and each event fires at its scheduled
		// wall-clock offset — AddShard warms and admits the joiner's
		// backend, DrainShard retires a member gracefully. Joins are
		// validated to claim fresh slots in order, so AddShard assigns
		// exactly the slot index the scenario names. Errors are
		// deliberately not fatal here — a drain refused because a
		// crash-fault already emptied the ring shows up in the band/ledger
		// verdict instead.
		for _, me := range sc.MemberEvents() {
			timers = append(timers, time.AfterFunc(me.At.D(), func() {
				if me.Kind == workload.JoinEvent {
					if _, _, err := rt.AddShard(addrs[me.Shard]); err != nil {
						logf(opts.Log, "storm: join shard=%d: %v", me.Shard, err)
					}
				} else if err := rt.DrainShard(me.Shard); err != nil {
					logf(opts.Log, "storm: drain shard=%d: %v", me.Shard, err)
				}
			}))
		}
	}
	admin, err := serveObs(opts.ObsAddr, scope)
	if err != nil {
		drainAll()
		return err
	}

	got, lerr := loadgen.Run(sc, loadgen.Options{
		Addr:    front,
		Conns:   conns(sc),
		Timeout: 30 * time.Second,
		Obs:     lgScope,
		// The storm runner owns both halves of the wire, so it can hand
		// the serving fleets to the generator for device-fault injection:
		// shard i owns the scenario's global devices [i×QPUs, (i+1)×QPUs).
		Fleets: svcs,
	})
	for _, t := range timers {
		t.Stop()
	}
	jobs, failed, submitted := drainAll()
	// Scrape after the drain so the exposition the gate validates carries
	// the settled counters, then release the admin port for the next attempt.
	scrapeErr := selfScrape(admin)
	admin.Close()
	if lerr != nil {
		return lerr
	}

	res.Jobs = got.Jobs
	res.Failed = got.Failed
	res.Retries = got.Retries
	res.Drops = got.Drops
	res.Stolen = got.Stolen
	res.Redispatched = got.Redispatched
	res.Submitted = submitted
	res.LiveP99 = got.Sojourn.P99
	res.Ratio = 0
	if pred.Sojourn.P99 > 0 {
		res.Ratio = float64(got.Sojourn.P99) / float64(pred.Sojourn.P99)
	}
	// The verdict: p99 in band, and the ledger conserves jobs. Fatal drops
	// never reach a service, and a router re-dispatch shows up as a fresh
	// submission on the survivor, so every shard's own ledger must balance
	// what it was handed, and the aggregate balances too.
	conserved := jobs+failed == submitted
	res.Pass = conserved && res.Ratio >= res.Band.Lo && res.Ratio <= res.Band.Hi
	if !conserved {
		res.Error = fmt.Sprintf("ledger leak: %d completed + %d failed != %d submitted",
			jobs, failed, submitted)
	}
	return judgeScrape(res, admin, scrapeErr)
}

// replayScope builds the per-attempt telemetry scope when the run asked for
// one, drift alarm armed from the attempt's own DES prediction wrapped in
// the scenario's acceptance band — the same numbers the band verdict uses.
func replayScope(opts Options, sc *workload.Scenario, pred *des.Result) *obs.Scope {
	if opts.ObsAddr == "" {
		return nil
	}
	scope := obs.NewScope()
	if alarm := obs.NewDriftAlarm(pred.SojournBands(band(sc)), obs.DriftOptions{
		Gauge: scope.Reg.Gauge("splitexec_drift_alarm"),
	}); alarm != nil {
		scope.SetDrift(alarm)
	}
	return scope
}

// serveObs brings up the admin endpoint for one replay attempt; an empty
// addr keeps telemetry off and returns a nil (close-safe) server.
func serveObs(addr string, scope *obs.Scope) (*obs.Server, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.Serve(addr, obs.ServerOptions{Scope: scope})
	if err != nil {
		return nil, fmt.Errorf("storm: admin endpoint: %w", err)
	}
	return srv, nil
}

// selfScrape is the observability half of the storm gate: it pulls the live
// admin endpoint's /metrics through the exposition validator and requires
// /healthz to answer with a decodable JSON document. A 503 is acceptable —
// a drift alarm legitimately tripped by an adversarial scenario is the
// endpoint working, not malfunctioning — but junk output is a failure.
func selfScrape(srv *obs.Server) error {
	if srv == nil {
		return nil
	}
	base := "http://" + srv.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second} // a wedged endpoint must fail, not hang CI
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("reading /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %s", resp.Status)
	}
	if err := obs.ValidateExposition(string(body)); err != nil {
		return fmt.Errorf("malformed /metrics exposition: %w", err)
	}
	hres, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("scraping /healthz: %w", err)
	}
	hbody, herr := io.ReadAll(hres.Body)
	hres.Body.Close()
	if herr != nil {
		return fmt.Errorf("reading /healthz: %w", herr)
	}
	switch hres.StatusCode {
	case http.StatusOK:
		// Healthy is the plain-text liveness answer.
		if strings.TrimSpace(string(hbody)) != "ok" {
			return fmt.Errorf("/healthz answered 200 with body %q, want ok", hbody)
		}
	case http.StatusServiceUnavailable:
		// Unhealthy must name its failures as a JSON document — a tripped
		// drift alarm under chaos is a valid answer, garbage is not.
		var fails []struct {
			Name  string `json:"name"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(hbody, &fails); err != nil {
			return fmt.Errorf("undecodable /healthz failure document: %w", err)
		}
		if len(fails) == 0 {
			return fmt.Errorf("/healthz answered 503 without naming a failure")
		}
	default:
		return fmt.Errorf("/healthz returned %s", hres.Status)
	}
	return nil
}

// judgeScrape folds the self-scrape verdict into the scenario result: a
// malformed endpoint fails the scenario even when the latency band passed.
func judgeScrape(res *ScenarioResult, admin *obs.Server, scrapeErr error) error {
	if admin == nil {
		return nil
	}
	if scrapeErr != nil {
		res.Obs = scrapeErr.Error()
		res.Pass = false
		if res.Error == "" {
			res.Error = "obs self-scrape: " + scrapeErr.Error()
		}
		return nil
	}
	res.Obs = "ok"
	return nil
}

// band resolves the scenario's acceptance band.
func band(sc *workload.Scenario) workload.Band {
	if sc.Band != nil {
		return *sc.Band
	}
	return DefaultBand
}

// conns sizes the replay connection pool for the scenario's concurrency,
// scaled to the federation width.
func conns(sc *workload.Scenario) int {
	n := 4 * sc.System.Hosts
	if n < 16 {
		n = 16
	}
	if n > 64 {
		n = 64
	}
	return min(n*sc.ShardCount(), 128)
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// EncodeReport renders the report as indented JSON.
func EncodeReport(r *Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
