package service

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

// TestQUBOWireRoundTrip: Encode→Decode is the identity on coefficients.
func TestQUBOWireRoundTrip(t *testing.T) {
	q := qubo.NewQUBO(5)
	q.Set(0, 0, -1.5)
	q.Set(0, 3, 2)
	q.Set(2, 4, -0.25)
	q.Set(4, 4, 7)
	got, err := DecodeQUBO(EncodeQUBO(q))
	if err != nil {
		t.Fatalf("DecodeQUBO: %v", err)
	}
	if got.Dim() != q.Dim() {
		t.Fatalf("dim %d != %d", got.Dim(), q.Dim())
	}
	for i := 0; i < q.Dim(); i++ {
		for j := i; j < q.Dim(); j++ {
			if got.Get(i, j) != q.Get(i, j) {
				t.Errorf("coefficient (%d,%d): %v != %v", i, j, got.Get(i, j), q.Get(i, j))
			}
		}
	}
}

// TestDecodeQUBORejects: malformed wire requests must error.
func TestDecodeQUBORejects(t *testing.T) {
	cases := []SolveRequest{
		{Dim: 0},
		{Dim: -3},
		{Dim: MaxWireDim + 1},
		{Dim: 4, Terms: []WireTerm{{I: 0, J: 4, Val: 1}}},
		{Dim: 4, Terms: []WireTerm{{I: -1, J: 2, Val: 1}}},
	}
	for i, req := range cases {
		if _, err := DecodeQUBO(req); err == nil {
			t.Errorf("case %d: DecodeQUBO accepted %+v", i, req)
		}
	}
}

// TestServeSolve runs the full TCP path: concurrent clients solving over
// one service, including a malformed request that must not kill the
// connection's peer service.
func TestServeSolve(t *testing.T) {
	svc, err := New(Options{Workers: 2, Fleet: 1, Base: testBase(), Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer svc.Drain()

	g := graph.Cycle(6)
	q := qubo.MaxCut(g, nil)

	var wg sync.WaitGroup
	responses := make([]SolveResponse, 3)
	errs := make([]error, 3)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr.String())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			c.SetTimeout(30 * time.Second)
			responses[i], errs[i] = c.Solve(q)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		r := responses[i]
		if !r.OK || len(r.Binary) != 6 || r.Reads < 1 {
			t.Fatalf("client %d: bad response %+v", i, r)
		}
		// A 6-cycle is bipartite: the optimum cuts all 6 edges, and the
		// annealer should find it on this tiny instance.
		bin := make([]int8, len(r.Binary))
		for j, b := range r.Binary {
			bin[j] = int8(b)
		}
		if cut := qubo.CutValue(g, nil, bin); cut < 4 {
			t.Errorf("client %d: cut value %v, want >= 4", i, cut)
		}
	}
	// Identical problems over the same service: responses must agree on
	// energy (the jobs differ only in their seed streams' samples, but
	// this instance's optimum is always found).
	if responses[0].Energy != responses[1].Energy || responses[1].Energy != responses[2].Energy {
		t.Errorf("energies diverged: %v %v %v", responses[0].Energy, responses[1].Energy, responses[2].Energy)
	}

	// An invalid request gets an error response, not a dropped connection.
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Solve(qubo.NewQUBO(0)); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Errorf("zero-dim solve: err = %v, want dim validation error", err)
	}
	// The same connection still serves valid requests afterwards.
	r, err := c.Solve(q)
	if err != nil {
		t.Fatalf("solve after error: %v", err)
	}
	if !reflect.DeepEqual(r.Binary, responses[0].Binary) && r.Energy != responses[0].Energy {
		t.Errorf("post-error solve diverged: %+v", r)
	}
}

// TestProfileWireRoundTrip: Encode→Decode is the identity on phase costs,
// and malformed profiles must error.
func TestProfileWireRoundTrip(t *testing.T) {
	p := arch.JobProfile{
		PreProcess:  3 * time.Millisecond,
		Network:     75 * time.Microsecond,
		QPUService:  time.Millisecond,
		PostProcess: 250 * time.Microsecond,
	}
	req := EncodeProfile(p)
	if req.Profile == nil {
		t.Fatal("EncodeProfile produced no profile payload")
	}
	got, err := DecodeProfile(req.Profile)
	if err != nil {
		t.Fatalf("DecodeProfile: %v", err)
	}
	if got != p {
		t.Errorf("round trip changed the profile: %+v vs %+v", got, p)
	}

	for i, bad := range []WireProfile{
		{PreProcessNS: -1},
		{QPUServiceNS: -5},
		{PreProcessNS: int64(MaxWireProfileTotal), QPUServiceNS: int64(time.Second)},
		// A near-MaxInt64 phase must not overflow the total past the cap.
		{PreProcessNS: int64(1<<63 - 1), QPUServiceNS: 1},
		{NetworkNS: int64(1<<62 + 1<<61)},
	} {
		if _, err := DecodeProfile(&bad); err == nil {
			t.Errorf("case %d: DecodeProfile accepted %+v", i, bad)
		}
	}
}

// TestServeProfile runs a synthetic profile job over the TCP front-end: the
// response must carry the replayed phase costs and a sojourn no shorter
// than the profile's unqueued total.
func TestServeProfile(t *testing.T) {
	svc, err := New(Options{Workers: 2, Fleet: 1, Base: testBase()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer svc.Drain()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	c.SetTimeout(30 * time.Second)

	p := arch.JobProfile{
		PreProcess:  2 * time.Millisecond,
		QPUService:  time.Millisecond,
		PostProcess: time.Millisecond,
	}
	resp, err := c.Profile(p)
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
	if !resp.OK {
		t.Fatalf("response not OK: %+v", resp)
	}
	if got := time.Duration(resp.Stage1US) * time.Microsecond; got < p.PreProcess-time.Millisecond || got > p.PreProcess+time.Millisecond {
		t.Errorf("stage1 %v, want ~%v", got, p.PreProcess)
	}
	if total := time.Duration(resp.TotalUS) * time.Microsecond; total < p.Total() {
		t.Errorf("sojourn %v shorter than the unqueued total %v", total, p.Total())
	}

	// A hostile profile exceeding the per-job budget is refused, and the
	// connection survives to serve the next request.
	if _, err := c.Profile(arch.JobProfile{PreProcess: MaxWireProfileTotal + time.Second}); err == nil {
		t.Error("oversized profile accepted")
	}
	if _, err := c.Profile(p); err != nil {
		t.Errorf("connection did not survive a refused profile: %v", err)
	}
}
