package qpuserver

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

func ferro(n int) *qubo.Ising {
	m := qubo.NewIsing(n)
	for i := 0; i+1 < n; i++ {
		m.SetCoupling(i, i+1, -1)
	}
	return m
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(anneal.DW2Timings(), anneal.SamplerOptions{Sweeps: 128})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestPackUnpackSpins(t *testing.T) {
	s := []int8{1, -1, -1, 1}
	round := UnpackSpins(PackSpins(s))
	for i := range s {
		if round[i] != s[i] {
			t.Fatalf("round trip: %v -> %v", s, round)
		}
	}
}

func TestProgramRequestRoundTrip(t *testing.T) {
	m := ferro(5)
	m.H[2] = 0.5
	m.Offset = 1.25
	back, err := DecodeProgram(ProgramRequest(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != 5 || back.Offset != 1.25 || back.H[2] != 0.5 {
		t.Errorf("decoded: %+v", back)
	}
	if back.Coupling(0, 1) != -1 {
		t.Errorf("coupling lost")
	}
	s := []int8{1, 1, 1, 1, 1}
	if math.Abs(m.Energy(s)-back.Energy(s)) > 1e-12 {
		t.Error("energies differ after round trip")
	}
}

func TestDecodeProgramValidation(t *testing.T) {
	if _, err := DecodeProgram(Request{Dim: -1}); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := DecodeProgram(Request{Dim: 2, H: map[int]float64{5: 1}}); err == nil {
		t.Error("out-of-range bias accepted")
	}
	if _, err := DecodeProgram(Request{Dim: 2, J: []CouplingTriple{{U: 0, V: 0, Val: 1}}}); err == nil {
		t.Error("self coupling accepted")
	}
	if _, err := DecodeProgram(Request{Dim: 2, J: []CouplingTriple{{U: 0, V: 7, Val: 1}}}); err == nil {
		t.Error("out-of-range coupling accepted")
	}
	if _, err := DecodeProgram(Request{Dim: MaxProgramDim + 1}); err == nil {
		t.Error("dim above MaxProgramDim accepted")
	}
	if m, err := DecodeProgram(Request{Dim: MaxProgramDim}); err != nil || m.Dim() != MaxProgramDim {
		t.Errorf("dim MaxProgramDim rejected: %v", err)
	}
}

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	want := Request{Op: OpExecute, Reads: 7, Seed: 42}
	if err := WriteMessage(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := ReadMessage(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != want.Op || got.Reads != 7 || got.Seed != 42 {
		t.Errorf("got %+v", got)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	// A forged huge length prefix must be rejected before allocation.
	r := strings.NewReader("\xff\xff\xff\xff")
	var v Request
	if err := ReadMessage(r, &v); err == nil {
		t.Error("oversized prefix accepted")
	}
}

func TestClientServerSolve(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if cli.Programmed() {
		t.Error("fresh client claims program")
	}
	if _, err := cli.Execute(1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Execute before Program succeeded")
	}

	m := ferro(8)
	if err := cli.Program(m); err != nil {
		t.Fatal(err)
	}
	set, err := cli.Execute(20, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 20 {
		t.Fatalf("samples = %d", set.Len())
	}
	best := set.Best()
	if best.Energy != -7 {
		t.Errorf("remote best energy = %v, want -7", best.Energy)
	}
	// Server-side accounting mirrors a local device.
	prog, exec := cli.QPUTime()
	if prog != anneal.DW2Timings().ProcessorInitialize() {
		t.Errorf("programming time = %v", prog)
	}
	if exec != anneal.DW2Timings().ExecutionTime(20) {
		t.Errorf("execution time = %v", exec)
	}
	if cli.NetworkTime() <= 0 {
		t.Error("network time not measured")
	}
}

func TestClientStatusAndReset(t *testing.T) {
	_, addr := startServer(t)
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	st, err := cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Programmed {
		t.Error("fresh server programmed")
	}
	if err := cli.Program(ferro(3)); err != nil {
		t.Fatal(err)
	}
	st, err = cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Programmed {
		t.Error("server not programmed after Program")
	}
	if err := cli.Reset(); err != nil {
		t.Fatal(err)
	}
	st, err = cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Programmed || st.TotalReads != 0 {
		t.Errorf("reset incomplete: %+v", st)
	}
}

func TestServerHardwareValidation(t *testing.T) {
	srv := NewServer(anneal.DW2Timings(), anneal.SamplerOptions{Sweeps: 16})
	srv.Hardware = graph.Chimera{M: 1, N: 1, L: 4}.Graph()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Couplings 0-1 (same shore) are not Chimera couplers: reject.
	bad := qubo.NewIsing(8)
	bad.SetCoupling(0, 1, -1)
	if err := cli.Program(bad); err == nil {
		t.Error("non-coupler program accepted")
	}
	// 0-4 (left shore 0 to right shore 0) is a coupler: accept.
	good := qubo.NewIsing(8)
	good.SetCoupling(0, 4, -1)
	if err := cli.Program(good); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	// Oversized program: reject.
	big := qubo.NewIsing(9)
	big.SetCoupling(0, 4, -1)
	if err := cli.Program(big); err == nil {
		t.Error("oversized program accepted")
	}
}

func TestServerSharedResourceContention(t *testing.T) {
	// The Fig. 1(b) behaviour: several hosts share one QPU; requests
	// serialize but all complete correctly.
	_, addr := startServer(t)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			if err := cli.Program(ferro(6)); err != nil {
				errs <- err
				return
			}
			set, err := cli.Execute(5, rand.New(rand.NewSource(seed)))
			if err != nil {
				errs <- err
				return
			}
			if set.Len() != 5 {
				errs <- err
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestClientDeterministicSeed(t *testing.T) {
	_, addr := startServer(t)
	run := func() float64 {
		cli, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		if err := cli.Program(ferro(10)); err != nil {
			t.Fatal(err)
		}
		set, err := cli.Execute(3, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		return set.Best().Energy
	}
	if run() != run() {
		t.Error("same client seed produced different remote results")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}
