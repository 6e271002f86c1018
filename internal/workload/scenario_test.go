package workload

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/sched"
)

func validScenario() *Scenario {
	return &Scenario{
		Name:    "unit",
		Seed:    7,
		Arrival: Arrival{Kind: Poisson, Rate: 100},
		Mix: []JobClass{
			{Name: "small", Weight: 3, Profile: Profile{
				PreProcess: Duration(2 * time.Millisecond),
				Network:    Duration(50 * time.Microsecond),
				QPUService: Duration(time.Millisecond),
			}},
			{Name: "large", Weight: 1, Dist: Exponential, Profile: Profile{
				PreProcess:  Duration(8 * time.Millisecond),
				QPUService:  Duration(4 * time.Millisecond),
				PostProcess: Duration(time.Millisecond),
			}},
		},
		System:  SystemSpec{Kind: "shared", Hosts: 4},
		Horizon: Horizon{Jobs: 100},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sc := validScenario()
	data, err := sc.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(sc, got) {
		t.Errorf("round trip changed the scenario:\n in: %+v\nout: %+v", sc, got)
	}
	// Durations must be human-readable strings on the wire, not ns counts.
	if !strings.Contains(string(data), `"2ms"`) {
		t.Errorf("encoded scenario lacks string durations:\n%s", data)
	}

	// The policy layer's fields survive the trip too.
	sc.Policy = sched.Priority
	sc.Mix[0].Priority = 1
	if data, err = sc.Encode(); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got, err = Decode(data); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Policy != sched.Priority || got.Mix[0].Priority != 1 {
		t.Errorf("policy fields lost in the round trip: %+v", got)
	}
}

// randomScenario builds a structurally valid scenario from an RNG; the
// round-trip property test below runs it across many draws.
func randomScenario(rng *rand.Rand) *Scenario {
	sc := &Scenario{Seed: rng.Int63()}
	switch rng.Intn(4) {
	case 0:
		sc.Arrival = Arrival{Kind: Poisson, Rate: 1 + rng.Float64()*999}
	case 1:
		sc.Arrival = Arrival{Kind: Uniform, Rate: 1 + rng.Float64()*999}
	case 2:
		sc.Arrival = Arrival{Kind: ClosedLoop, Clients: 1 + rng.Intn(16),
			Think: Duration(rng.Intn(int(10 * time.Millisecond)))}
	case 3:
		offs := make([]Duration, 1+rng.Intn(8))
		var t Duration
		for i := range offs {
			t += Duration(rng.Intn(int(time.Millisecond)))
			offs[i] = t
		}
		sc.Arrival = Arrival{Kind: Trace, Trace: offs}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		c := JobClass{
			Name:   string(rune('a' + i)),
			Weight: 0.1 + rng.Float64(),
			Profile: Profile{
				PreProcess:  Duration(1 + rng.Intn(int(5*time.Millisecond))),
				Network:     Duration(rng.Intn(int(100 * time.Microsecond))),
				QPUService:  Duration(1 + rng.Intn(int(2*time.Millisecond))),
				PostProcess: Duration(rng.Intn(int(time.Millisecond))),
			},
		}
		if rng.Intn(2) == 0 {
			c.Dist = Exponential
		}
		sc.Mix = append(sc.Mix, c)
	}
	hosts := 1 + rng.Intn(8)
	switch rng.Intn(3) {
	case 0:
		sc.System = SystemSpec{Kind: "asymmetric", Hosts: 1}
	case 1:
		sc.System = SystemSpec{Kind: "shared", Hosts: hosts}
	case 2:
		sc.System = SystemSpec{Kind: "dedicated", Hosts: hosts}
	}
	if sc.Arrival.Kind == Trace {
		sc.Horizon = Horizon{Jobs: 1 + rng.Intn(len(sc.Arrival.Trace))}
	} else if rng.Intn(2) == 0 {
		sc.Horizon = Horizon{Jobs: 1 + rng.Intn(1000)}
	} else {
		sc.Horizon = Horizon{Duration: Duration(1 + rng.Intn(int(time.Second)))}
	}
	return sc
}

func TestRandomizedRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		sc := randomScenario(rng)
		data, err := sc.Encode()
		if err != nil {
			t.Fatalf("trial %d: Encode of %+v: %v", trial, sc, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("trial %d: Decode: %v\n%s", trial, err, data)
		}
		if !reflect.DeepEqual(sc, got) {
			t.Fatalf("trial %d: round trip changed the scenario:\n in: %+v\nout: %+v", trial, sc, got)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"negative rate", func(sc *Scenario) { sc.Arrival.Rate = -3 }, "rate > 0"},
		{"zero rate", func(sc *Scenario) { sc.Arrival.Rate = 0 }, "rate > 0"},
		{"degenerate rate", func(sc *Scenario) { sc.Arrival.Rate = 5e-324 }, "outside"},
		{"infinite rate", func(sc *Scenario) { sc.Arrival.Rate = math.Inf(1) }, "outside"},
		{"unknown arrival kind", func(sc *Scenario) { sc.Arrival.Kind = "bursty" }, "unknown arrival kind"},
		{"empty mix", func(sc *Scenario) { sc.Mix = nil }, "empty job mix"},
		{"zero weight", func(sc *Scenario) { sc.Mix[0].Weight = 0 }, "weight > 0"},
		{"unknown dist", func(sc *Scenario) { sc.Mix[0].Dist = "pareto" }, "unknown dist"},
		{"negative phase", func(sc *Scenario) { sc.Mix[0].Profile.PreProcess = -1 }, "negative phase"},
		{"zero service", func(sc *Scenario) { sc.Mix[0].Profile = Profile{} }, "zero total service"},
		{"unknown system", func(sc *Scenario) { sc.System.Kind = "mesh" }, "unknown system kind"},
		{"no hosts", func(sc *Scenario) { sc.System.Hosts = 0 }, "host"},
		{"no horizon", func(sc *Scenario) { sc.Horizon = Horizon{} }, "jobs or duration"},
		{"negative horizon", func(sc *Scenario) { sc.Horizon.Jobs = -5 }, "negative horizon"},
		{"closed loop no clients", func(sc *Scenario) {
			sc.Arrival = Arrival{Kind: ClosedLoop}
		}, "clients >= 1"},
		{"unsorted trace", func(sc *Scenario) {
			sc.Arrival = Arrival{Kind: Trace, Trace: []Duration{5, 2}}
			sc.Horizon = Horizon{Jobs: 2}
		}, "ascending"},
		{"empty trace", func(sc *Scenario) {
			sc.Arrival = Arrival{Kind: Trace}
		}, "at least one offset"},
		{"trace shorter than horizon", func(sc *Scenario) {
			sc.Arrival = Arrival{Kind: Trace, Trace: []Duration{1, 2}}
			sc.Horizon = Horizon{Jobs: 5}
		}, "trace holds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScenario()
			tc.mut(sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", sc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeRejectsBadJSON(t *testing.T) {
	for _, bad := range []string{
		"", "{", `{"arrival": {"kind": "poisson", "rate": "fast"}}`,
		`{"mix": [{"profile": {"preProcess": "three seconds"}}]}`,
	} {
		if _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded", bad)
		}
	}
}

func TestJobAtDeterministicAndDistributed(t *testing.T) {
	sc := validScenario()
	counts := make([]int, len(sc.Mix))
	const n = 20000
	var sumExp time.Duration
	for i := 0; i < n; i++ {
		j := sc.JobAt(i)
		if again := sc.JobAt(i); !reflect.DeepEqual(j, again) {
			t.Fatalf("JobAt(%d) not deterministic: %+v vs %+v", i, j, again)
		}
		counts[j.Class]++
		if j.Class == 1 {
			sumExp += j.Profile.Total()
		}
	}
	// Class frequencies should track the 3:1 weights.
	frac := float64(counts[0]) / n
	if frac < 0.72 || frac > 0.78 {
		t.Errorf("class 0 frequency %.3f, want ~0.75", frac)
	}
	// Exponential scaling preserves the mean total.
	mean := sumExp / time.Duration(counts[1])
	want := sc.Mix[1].Profile.Arch().Total()
	if ratio := float64(mean) / float64(want); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("exp class mean total %v, want ~%v", mean, want)
	}
}

func TestArrivalGenerators(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		sc := validScenario()
		sc.Arrival = Arrival{Kind: Uniform, Rate: 1000}
		g, err := sc.Arrivals()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 5; i++ {
			off, ok := g.Next()
			if !ok || off != time.Duration(i)*time.Millisecond {
				t.Fatalf("uniform arrival %d = %v, %v", i, off, ok)
			}
		}
	})
	t.Run("poisson", func(t *testing.T) {
		sc := validScenario()
		g1, _ := sc.Arrivals()
		g2, _ := sc.Arrivals()
		var last time.Duration
		n := 0
		var sum time.Duration
		for i := 0; i < 10000; i++ {
			a, ok1 := g1.Next()
			b, ok2 := g2.Next()
			if !ok1 || !ok2 || a != b {
				t.Fatalf("poisson stream not deterministic at %d: %v vs %v", i, a, b)
			}
			if a < last {
				t.Fatalf("arrival %d went backwards: %v after %v", i, a, last)
			}
			sum += a - last
			last = a
			n++
		}
		mean := sum / time.Duration(n)
		want := time.Duration(float64(time.Second) / sc.Arrival.Rate)
		if ratio := float64(mean) / float64(want); ratio < 0.95 || ratio > 1.05 {
			t.Errorf("poisson mean gap %v, want ~%v", mean, want)
		}
	})
	t.Run("trace", func(t *testing.T) {
		sc := validScenario()
		sc.Arrival = Arrival{Kind: Trace, Trace: []Duration{1, 2, 5}}
		sc.Horizon = Horizon{Jobs: 3}
		g, err := sc.Arrivals()
		if err != nil {
			t.Fatal(err)
		}
		var got []time.Duration
		for {
			off, ok := g.Next()
			if !ok {
				break
			}
			got = append(got, off)
		}
		if !reflect.DeepEqual(got, []time.Duration{1, 2, 5}) {
			t.Errorf("trace arrivals = %v", got)
		}
	})
	t.Run("rate process exhausts instead of overflowing", func(t *testing.T) {
		// MinRate keeps single gaps representable; a generator pushed past
		// the end of virtual time must stop, not go negative.
		g := &ArrivalGen{spec: Arrival{Kind: Uniform, Rate: MinRate}, rng: validScenario().ArrivalRNG()}
		g.now = time.Duration(1<<63 - 1) // one gap short of overflow
		if off, ok := g.Next(); ok {
			t.Errorf("overflowing uniform generator returned %v", off)
		}
		g = &ArrivalGen{spec: Arrival{Kind: Poisson, Rate: MinRate}, rng: validScenario().ArrivalRNG()}
		g.now = time.Duration(1<<63 - 1)
		if off, ok := g.Next(); ok {
			t.Errorf("overflowing poisson generator returned %v", off)
		}
	})
	t.Run("closed loop has no open stream", func(t *testing.T) {
		sc := validScenario()
		sc.Arrival = Arrival{Kind: ClosedLoop, Clients: 2}
		if _, err := sc.Arrivals(); err == nil {
			t.Error("Arrivals accepted a closed-loop scenario")
		}
	})
}

func TestDurationJSONForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`1500000`), &d); err != nil || d.D() != 1500*time.Microsecond {
		t.Errorf("numeric duration: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"1.5ms"`), &d); err != nil || d.D() != 1500*time.Microsecond {
		t.Errorf("string duration: %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("bool duration accepted")
	}
}
