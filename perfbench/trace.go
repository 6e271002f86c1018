package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/core"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/parallel"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/ring"
	"github.com/splitexec/splitexec/internal/router"
	"github.com/splitexec/splitexec/internal/service"
	"github.com/splitexec/splitexec/internal/stats"
	"github.com/splitexec/splitexec/internal/workload"
)

// The traced run attributes each job's time to layers, timing calls into
// each module's public functions from here. It first makes a
// single-threaded decomposition pass over the workload's inputs, then
// repeats a cycle of rounds until the budget is spent: an untraced round
// (the baseline for trace.overhead_frac and obs.overhead_frac, and the go.*
// counters), a traced round (spans around the QPU devices, plus each
// response's own timings) and a round with an obs.NewScope() telemetry
// scope on every tier, as -obs deployments run. None of its numbers feed
// the end-to-end metrics.

// deviceSpan is one timed call into a QPU device.
type deviceSpan struct {
	name       string // anneal.program or anneal.execute
	start, end time.Time
}

// recorder collects the device spans of every worker of a traced stack.
type recorder struct {
	mu    sync.Mutex
	spans []deviceSpan
}

func (r *recorder) add(name string, start time.Time) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, deviceSpan{name, start, end})
	r.mu.Unlock()
}

// since returns the spans that started at or after t.
func (r *recorder) since(t time.Time) []deviceSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []deviceSpan
	for _, s := range r.spans {
		if !s.start.Before(t) {
			out = append(out, s)
		}
	}
	return out
}

// fleet builds one service's QPU fleet for a traced round: the device the
// service would build for itself, timing-wrapped.
func (r *recorder) fleet() []core.QPUDevice {
	cfg := baseConfig()
	dev := core.LocalDevice(anneal.NewDevice(cfg.Node.QPU.Timings, cfg.Sampler))
	return []core.QPUDevice{timedDevice{QPUDevice: dev, rec: r}}
}

// timedDevice records the wall time of Program and Execute. QPUTime passes
// through, so the service's virtual-time accounting is unchanged.
type timedDevice struct {
	core.QPUDevice
	rec *recorder
}

func (d timedDevice) Program(m *qubo.Ising) error {
	defer d.rec.add("anneal.program", time.Now())
	return d.QPUDevice.Program(m)
}

func (d timedDevice) Execute(reads int, rng *rand.Rand) (*anneal.SampleSet, error) {
	defer d.rec.add("anneal.execute", time.Now())
	return d.QPUDevice.Execute(reads, rng)
}

// decomposition holds the single-threaded pass: each public entry point a
// job crosses, timed directly on the workload's own inputs, in µs per job.
// The pass uses fixed per-job seeds, so its counts repeat exactly for a
// seed.
type decomposition struct {
	codec, shardKey, newSolver                  []float64
	hash, lookup, translate, embed, setParams   []float64
	post, requestBytes, tries, dijkstra, qubits []float64
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// decompose times, for each of the first w.decomp jobs: the request codec
// (encode, JSON both ways, decode), router.ShardKey, core.NewSolver with
// the service's configuration, graph.CanonicalHash, EmbeddingCache.Lookup
// and Solver.SolveQUBO's own stage timings.
func decompose(w spec, in inputs, t *tally) decomposition {
	var d decomposition
	cfg := baseConfig()
	cfg.Cache = core.NewEmbeddingCache()
	cfg.Device = core.LocalDevice(anneal.NewDevice(cfg.Node.QPU.Timings, cfg.Sampler))
	solver := func(i int) *core.Solver {
		c := cfg
		c.Seed = parallel.DeriveSeed(1, i)
		return core.NewSolver(c)
	}
	// Like solve-hot's shards, the pass's cache holds the library before
	// the first timed job.
	for i, p := range in.prewarm {
		if _, err := solver(i).SolveQUBO(p.q); err != nil {
			t.problem("decomposition pre-warm %d: %v", i, err)
		}
	}
	for i, p := range in.jobs[:min(w.decomp, len(in.jobs))] {
		start := time.Now()
		buf, err := json.Marshal(p.request())
		var req service.SolveRequest
		if err == nil {
			err = json.Unmarshal(buf, &req)
		}
		if err == nil {
			_, err = service.DecodeQUBO(req)
		}
		d.codec = append(d.codec, us(time.Since(start)))
		if err != nil {
			t.problem("decomposition codec %d: %v", i, err)
			continue
		}
		d.requestBytes = append(d.requestBytes, float64(len(buf)+4)) // 4-byte length prefix

		start = time.Now()
		_, err = router.ShardKey(req)
		d.shardKey = append(d.shardKey, us(time.Since(start)))
		if err != nil {
			t.problem("decomposition shard key %d: %v", i, err)
		}
		start = time.Now()
		s := solver(i)
		d.newSolver = append(d.newSolver, us(time.Since(start)))

		g := p.q.Graph()
		start = time.Now()
		graph.CanonicalHash(g)
		d.hash = append(d.hash, us(time.Since(start)))
		start = time.Now()
		cfg.Cache.Lookup(g)
		d.lookup = append(d.lookup, us(time.Since(start)))
		sol, err := s.SolveQUBO(p.q)
		if err != nil {
			t.problem("decomposition solve %d: %v", i, err)
			continue
		}
		tm := sol.Timing
		d.translate = append(d.translate, us(tm.Translate))
		d.embed = append(d.embed, us(tm.EmbedSearch))
		d.setParams = append(d.setParams, us(tm.SetParameters))
		d.post = append(d.post, us(tm.Sort+tm.Unembed))
		d.tries = append(d.tries, float64(sol.EmbedStats.Tries))
		d.dijkstra = append(d.dijkstra, float64(sol.EmbedStats.DijkstraRuns))
		d.qubits = append(d.qubits, float64(sol.Embedding.PhysicalQubits()))
	}
	return d
}

// span is one traced interval, in µs from the round's first measured send.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a job's root
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// jobTrace is one measured job of a traced round, in µs.
type jobTrace struct {
	latency, wire, queue, lease, sojourn float64
	program, execute                     float64
	reads, broken                        int
}

// traceRound rebuilds each measured job's spans. client.call comes from the
// client's clock. service.sojourn, service.queue and service.lease_wait
// come from the response's own timings: the response does not say where
// its sojourn fell, so the sojourn is centred in the round trip, splitting
// the wire time evenly between the two directions. anneal.program and
// anneal.execute are the device calls the job's round trip encloses. It
// also returns the device spans no job enclosed.
func traceRound(r round) ([]jobTrace, []span, int) {
	owner := assignDevices(r.calls, r.devices)
	byJob := make([][]int, len(r.calls))
	orphans := 0
	for k, j := range owner {
		if j < 0 {
			orphans++
			continue
		}
		byJob[j] = append(byJob[j], k)
	}
	at := func(t time.Time) float64 { return us(t.Sub(r.start)) }
	var spans []span
	add := func(parent, job int, name string, start, end float64) int {
		spans = append(spans, span{len(spans), parent, job, name, start, end})
		return len(spans) - 1
	}
	// The response truncates its timings to whole µs; the middle of that
	// µs is the unbiased reading.
	mid := func(v int64) float64 { return float64(v) + 0.5 }
	jobs := make([]jobTrace, len(r.calls))
	for i, c := range r.calls {
		j := &jobs[i]
		j.latency = us(c.end.Sub(c.start))
		j.sojourn = mid(c.resp.TotalUS)
		j.wire = j.latency - j.sojourn
		j.queue = mid(c.resp.QueueWaitUS)
		j.lease = mid(c.resp.QPUWaitUS)
		j.reads, j.broken = c.resp.Reads, c.resp.BrokenChains

		root := add(-1, i, "client.call", at(c.start), at(c.end))
		s0 := at(c.start) + j.wire/2
		soj := add(root, i, "service.sojourn", s0, s0+j.sojourn)
		add(soj, i, "service.queue", s0, s0+j.queue)
		leased := s0 + j.queue + j.lease // profile jobs lease right after the queue
		for _, k := range byJob[i] {
			ds := r.devices[k]
			if ds.name == "anneal.program" {
				j.program += us(ds.end.Sub(ds.start))
				leased = at(ds.start) // solve jobs lease when they program
			} else {
				j.execute += us(ds.end.Sub(ds.start))
			}
			add(soj, i, ds.name, at(ds.start), at(ds.end))
		}
		add(soj, i, "service.lease_wait", leased-j.lease, leased)
	}
	return jobs, spans, orphans
}

// assignDevices gives each device span to the job whose round trip encloses
// it and ends first: a device call belongs to the job holding the lease,
// which replies before any job still waiting to embed or to lease. It
// returns -1 for a span no round trip encloses.
func assignDevices(calls []call, devs []deviceSpan) []int {
	order := make([]int, len(calls))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return calls[order[a]].end.Before(calls[order[b]].end) })
	owner := make([]int, len(devs))
	for k, ds := range devs {
		owner[k] = -1
		first := sort.Search(len(order), func(x int) bool { return !calls[order[x]].end.Before(ds.end) })
		// With two clients only a few short calls can end between the
		// span and its owner's reply.
		for x := first; x < len(order) && x < first+64; x++ {
			if !calls[order[x]].start.After(ds.start) {
				owner[k] = order[x]
				break
			}
		}
	}
	return owner
}

// runTraced runs the traced variant and returns the per-layer metrics. It
// writes the first traced round's spans to spans.jsonl and the per-layer
// attribution table to layers.txt in dir.
func runTraced(w spec, in inputs, budget time.Duration, dir string, t *tally) map[string]metric {
	start := time.Now()
	d := decompose(w, in, t)
	cycles := time.Now()
	var plain, traced, obsOn []round
	for n := 1; ; n++ {
		plain = append(plain, runRound(w, in, false, nil, t))
		traced = append(traced, runRound(w, in, false, &recorder{}, t))
		obsOn = append(obsOn, runRound(w, in, true, nil, t))
		if el := time.Since(start); el+time.Since(cycles)/time.Duration(n) > budget {
			break
		}
	}

	var jobs []jobTrace
	orphans := 0
	var delta counters
	for i, r := range traced {
		js, spans, o := traceRound(r)
		jobs = append(jobs, js...)
		orphans += o
		if i == 0 {
			if err := writeSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
				t.problem("span dump: %v", err)
			}
		}
		delta.hits += r.delta.hits
		delta.misses += r.delta.misses
		delta.redispatched += r.delta.redispatched
		if delta.dispatched == nil && r.delta.dispatched != nil {
			delta.dispatched = make([]int64, len(r.delta.dispatched))
		}
		for s, n := range r.delta.dispatched {
			delta.dispatched[s] += n
		}
	}
	if orphans > 0 {
		t.problem("%d device spans fell outside every measured round trip", orphans)
	}
	col := func(f func(jobTrace) float64) []float64 {
		out := make([]float64, len(jobs))
		for i, j := range jobs {
			out[i] = f(j)
		}
		return out
	}
	latency := col(func(j jobTrace) float64 { return j.latency })
	wire := col(func(j jobTrace) float64 { return j.wire })
	queue := col(func(j jobTrace) float64 { return j.queue })
	lease := col(func(j jobTrace) float64 { return j.lease })
	sojourn := col(func(j jobTrace) float64 { return j.sojourn })
	reads := col(func(j jobTrace) float64 { return float64(j.reads) })
	broken := col(func(j jobTrace) float64 { return float64(j.broken) })
	program := col(func(j jobTrace) float64 { return j.program })
	execute := col(func(j jobTrace) float64 { return j.execute })

	a := compose(w, in, d, latency, wire, queue, lease, sojourn, program, execute)
	traceOverhead := 1 - medianThroughput(traced)/medianThroughput(plain)
	obsOverhead := 1 - medianThroughput(obsOn)/medianThroughput(plain)
	var table strings.Builder
	a.write(&table, w, len(jobs), traceOverhead, obsOverhead)
	fmt.Fprint(os.Stderr, table.String())
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table.String()), 0o644); err != nil {
		t.problem("layer table: %v", err)
	}

	hitFrac := 0.0
	if n := delta.hits + delta.misses; n > 0 {
		hitFrac = float64(delta.hits) / float64(n)
	}
	var alloc, gcs, cpu, util []float64
	for _, r := range plain {
		n := float64(len(r.calls))
		alloc = append(alloc, float64(r.use.alloc)/1024/n)
		gcs = append(gcs, float64(r.use.gcs)*1000/n)
		cpu = append(cpu, float64(r.use.cpu)/1e6/n)
		util = append(util, r.use.cpu.Seconds()/r.wall.Seconds())
	}
	return map[string]metric{
		"service.wire_us":              {percentile(wire, 0.5), "us"},
		"service.request_bytes":        {stats.Mean(d.requestBytes), "bytes"},
		"service.codec_us":             {percentile(d.codec, 0.5), "us"},
		"service.queue_wait_us":        {binnedPercentile(queue, 0.5), "us"},
		"service.queue_wait_us_p99":    {binnedPercentile(queue, 0.99), "us"},
		"service.lease_wait_us_p99":    {binnedPercentile(lease, 0.99), "us"},
		"service.sojourn_us":           {binnedPercentile(sojourn, 0.5), "us"},
		"router.shard_key_us":          {percentile(d.shardKey, 0.5), "us"},
		"router.redispatched":          {float64(delta.redispatched), "count"},
		"ring.shard_share_max":         {shardShareMax(in, delta), "fraction"},
		"core.new_solver_us":           {percentile(d.newSolver, 0.5), "us"},
		"core.embed_us":                {percentile(d.embed, 0.5), "us"},
		"core.embed_us_p99":            {percentile(d.embed, 0.99), "us"},
		"core.set_params_us":           {percentile(d.setParams, 0.5), "us"},
		"core.post_us":                 {percentile(d.post, 0.5), "us"},
		"core.cache_lookup_us":         {percentile(d.lookup, 0.5), "us"},
		"core.cache_hit_frac":          {hitFrac, "fraction"},
		"graph.canonical_hash_us":      {percentile(d.hash, 0.5), "us"},
		"embed.tries_per_job":          {stats.Mean(d.tries), "count"},
		"embed.dijkstra_per_job":       {stats.Mean(d.dijkstra), "count"},
		"embed.qubits_per_job":         {stats.Mean(d.qubits), "count"},
		"anneal.program_us":            {percentile(program, 0.5), "us"},
		"anneal.execute_us":            {percentile(execute, 0.5), "us"},
		"anneal.reads_per_job":         {stats.Mean(reads), "count"},
		"anneal.broken_chains_per_job": {stats.Mean(broken), "count"},
		"obs.overhead_frac":            {obsOverhead, "fraction"},
		"go.alloc_kb_per_job":          {stats.Median(alloc), "KB"},
		"go.gc_per_kjob":               {stats.Median(gcs), "count"},
		"go.cpu_ms_per_job":            {stats.Median(cpu), "ms"},
		"go.cpu_util":                  {stats.Median(util), "cores"},
		"attrib.service_share":         {a.service / a.total, "fraction"},
		"attrib.router_share":          {a.router / a.total, "fraction"},
		"attrib.core_share":            {a.core / a.total, "fraction"},
		"attrib.embed_share":           {a.embed / a.total, "fraction"},
		"attrib.anneal_share":          {a.anneal / a.total, "fraction"},
		"attrib.unattributed_share":    {a.unattributed() / a.total, "fraction"},
		"trace.overhead_frac":          {traceOverhead, "fraction"},
	}
}

// binnedPercentile is the p-quantile of whole-µs response timings read as
// bin midpoints, taking each sample as spread evenly over its 1-µs bin: the
// grouped-data quantile, which keeps sub-µs resolution when most samples
// share a bin.
func binnedPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	target := p * float64(len(xs))
	v := xs[min(int(target), len(xs)-1)]
	below := sort.SearchFloat64s(xs, v)
	in := sort.SearchFloat64s(xs, v+0.5) - below
	return v - 0.5 + (target-float64(below))/float64(in)
}

func medianThroughput(rs []round) float64 {
	thr := make([]float64, len(rs))
	for i, r := range rs {
		thr[i] = float64(len(r.calls)) / r.wall.Seconds()
	}
	return stats.Median(thr)
}

// shardShareMax is the largest shard's share of the measured jobs. The
// routed workloads read it from the router's dispatch ledger; solve-cold,
// which has no router, from the same two-member ring over its own keys.
func shardShareMax(in inputs, delta counters) float64 {
	counts := delta.dispatched
	if counts == nil {
		rg := ring.New([]string{workload.ShardName(0), workload.ShardName(1)}, 0)
		counts = make([]int64, 2)
		for _, p := range in.jobs {
			counts[rg.Owner(p.hash)]++
		}
	}
	var total, most int64
	for _, n := range counts {
		total += n
		most = max(most, n)
	}
	if total == 0 {
		return 0
	}
	return float64(most) / float64(total)
}

// attribution composes per-job layer times (µs, means over jobs) into
// shares of the mean client round trip, following the component-model
// method: measure each component alone, compose, and compare with the
// whole.
type attribution struct {
	total float64 // mean client round trip
	// service is what the round trip spends outside the shard's sojourn,
	// less the router's own key derivation, plus the sojourn's queue and
	// lease waits.
	service, router float64
	// core, embed and anneal come from the decomposition pass and the
	// traced devices.
	core, embed, anneal float64
	// composedSojourn and sojourn cross-check the composition against the
	// traced sojourns: queue + lease + core + embed + anneal against the
	// mean measured sojourn.
	composedSojourn, sojourn float64
}

func (a attribution) unattributed() float64 {
	return a.total - a.service - a.router - a.core - a.embed - a.anneal
}

func compose(w spec, in inputs, d decomposition, latency, wire, queue, lease, sojourn, program, execute []float64) attribution {
	a := attribution{total: stats.Mean(latency), sojourn: stats.Mean(sojourn)}
	if w.routed {
		a.router = stats.Mean(d.shardKey)
	}
	a.service = stats.Mean(wire) - a.router + stats.Mean(queue) + stats.Mean(lease)
	a.core = stats.Mean(d.newSolver) + stats.Mean(d.translate) + stats.Mean(d.setParams) + stats.Mean(d.post)
	if len(in.prewarm) > 0 {
		// On a hit the embedding stage is the cache lookup and the minor
		// validation, both core's.
		a.core += stats.Mean(d.embed)
	} else {
		a.core += stats.Mean(d.lookup)
		a.embed = stats.Mean(d.embed) - stats.Mean(d.lookup)
	}
	a.anneal = stats.Mean(program) + stats.Mean(execute)
	a.composedSojourn = stats.Mean(queue) + stats.Mean(lease) + a.core + a.embed + a.anneal
	return a
}

// write prints the per-layer table.
func (a attribution) write(out io.Writer, w spec, jobs int, traceOverhead, obsOverhead float64) {
	fmt.Fprintf(out, "perfbench %s: per-layer attribution over %d traced jobs (mean µs per job)\n", w.name, jobs)
	for _, row := range []struct {
		layer string
		us    float64
	}{
		{"service", a.service}, {"router", a.router}, {"core", a.core},
		{"embed", a.embed}, {"anneal", a.anneal}, {"unattributed", a.unattributed()},
		{"round trip", a.total},
	} {
		fmt.Fprintf(out, "  %-13s %10.1f  %6.3f\n", row.layer, row.us, row.us/a.total)
	}
	fmt.Fprintf(out, "  composed in-service time %.1f µs vs traced sojourn %.1f µs (ratio %.3f)\n",
		a.composedSojourn, a.sojourn, a.composedSojourn/a.sojourn)
	fmt.Fprintf(out, "  trace.overhead_frac %.4f  obs.overhead_frac %.4f\n", traceOverhead, obsOverhead)
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
