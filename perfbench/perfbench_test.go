package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/router"
	"github.com/splitexec/splitexec/internal/service"
)

// small returns the named workload with its batches cut down for tests.
func small(name string) spec {
	for _, w := range workloads {
		if w.name == name {
			w.warmup, w.jobs = 20, 200
			return w
		}
	}
	panic("unknown workload " + name)
}

func TestGenerateIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := small(w.name)
		a, b, c := generate(w, 7), generate(w, 7), generate(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", w.name)
		}
	}
}

func TestColdGraphsArePairwiseNonIsomorphic(t *testing.T) {
	in := generate(small("solve-cold"), 3)
	seen := map[string]bool{}
	for i, p := range append(append([]problem(nil), in.warmup...), in.jobs...) {
		g := p.q.Graph()
		h := graph.CanonicalHash(g)
		if h != p.hash {
			t.Fatalf("problem %d: recorded hash differs from its graph's", i)
		}
		if seen[h] {
			t.Fatalf("problem %d repeats an earlier isomorphism class", i)
		}
		seen[h] = true
		if n := g.Order(); n < minVertices || n > maxVertices || !graph.IsConnected(g) || g.MaxDegree() > maxDegree {
			t.Errorf("problem %d: %d vertices, connected %v, max degree %d", i, n, graph.IsConnected(g), g.MaxDegree())
		}
	}
}

func TestHotJobsRouteOnTheirLibraryKey(t *testing.T) {
	in := generate(small("solve-hot"), 3)
	keys := map[string]bool{}
	for _, p := range in.prewarm {
		keys[p.hash] = true
	}
	if len(keys) != librarySize {
		t.Fatalf("library has %d distinct keys, want %d", len(keys), librarySize)
	}
	for i, p := range append(append([]problem(nil), in.warmup...), in.jobs...) {
		key, err := router.ShardKey(service.EncodeQUBO(p.q))
		if err != nil || key != p.hash || !keys[key] {
			t.Fatalf("job %d routes on key %.12s (err %v), want its library key %.12s", i, key, err, p.hash)
		}
	}
}

func TestGroundEnergyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 10; n++ {
		for k := 0; k < 5; k++ {
			q := qubo.RandomQUBO(n, 0.5, rng)
			if _, want := q.BruteForce(); math.Abs(groundEnergy(q)-want) > 1e-9 {
				t.Errorf("n=%d: Gray-code minimum %v, brute force %v", n, groundEnergy(q), want)
			}
		}
	}
	for _, p := range distinctProblems(rng, 7, map[string]bool{}) {
		if _, want := p.q.BruteForce(); p.ground != want {
			t.Errorf("%d-vertex MAX-CUT: graded ground %v, brute force %v", p.q.Dim(), p.ground, want)
		}
	}
}

func TestCheckSolveRejectsWrongAnswers(t *testing.T) {
	p := distinctProblems(rand.New(rand.NewSource(2)), 1, map[string]bool{})[0]
	best, e := p.q.BruteForce()
	resp := service.SolveResponse{OK: true, Energy: e, Binary: make([]byte, len(best))}
	for i, b := range best {
		resp.Binary[i] = byte(b)
	}
	if ground, err := checkSolve(p, resp); err != nil || !ground {
		t.Fatalf("exact answer: ground %v, err %v", ground, err)
	}
	misreported := resp
	misreported.Energy = e + 1
	if _, err := checkSolve(p, misreported); err == nil {
		t.Error("an energy that disagrees with the assignment passed")
	}
	short := resp
	short.Binary = resp.Binary[1:]
	if _, err := checkSolve(p, short); err == nil {
		t.Error("an assignment one bit short passed")
	}
}

func TestAssignDevicesPicksTheEnclosingCallThatEndsFirst(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	calls := []call{
		{start: at(0), end: at(10)}, // holds the device over 2–6 ms
		{start: at(1), end: at(20)}, // waits for it, then holds it over 11–15 ms
	}
	devs := []deviceSpan{
		{"anneal.program", at(2), at(3)}, {"anneal.execute", at(3), at(6)},
		{"anneal.program", at(11), at(12)}, {"anneal.execute", at(12), at(15)},
		{"anneal.execute", at(30), at(31)},
	}
	if got, want := assignDevices(calls, devs), []int{0, 0, 1, 1, -1}; !reflect.DeepEqual(got, want) {
		t.Errorf("owners %v, want %v", got, want)
	}
}
