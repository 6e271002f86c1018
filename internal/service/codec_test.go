package service

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
)

// benchShapedQUBO is a MAX-CUT QUBO on a 16-vertex, 19-edge graph of
// degree at most 3, the largest of perfbench's inputs.
func benchShapedQUBO() *qubo.QUBO {
	rng := rand.New(rand.NewSource(1))
	g := graph.New(16)
	for g.Size() < 19 {
		u, v := rng.Intn(16), rng.Intn(16)
		if g.Degree(u) < 3 && g.Degree(v) < 3 {
			g.AddEdge(u, v)
		}
	}
	return qubo.MaxCut(g, nil)
}

// benchShapedReply is a routed solve reply for benchShapedQUBO.
func benchShapedReply() SolveResponse {
	return SolveResponse{
		OK: true, Index: 123456, Energy: -17, Binary: bytes.Repeat([]byte{0, 1}, 8),
		Reads: 4, QueueWaitUS: 3, QPUWaitUS: 1, Stage1US: 180, Stage2US: 420, Stage3US: 12, TotalUS: 640,
		Routing: &WireRouting{Shard: 1, Home: 1, Epoch: 2},
	}
}

// randomRequest draws a QUBO request with arbitrary finite coefficients,
// repeated and unordered index pairs included.
func randomRequest(rng *rand.Rand) SolveRequest {
	req := SolveRequest{Dim: 1 + rng.Intn(300)}
	for k := rng.Intn(40); k > 0; k-- {
		req.Terms = append(req.Terms, WireTerm{I: rng.Intn(req.Dim), J: rng.Intn(req.Dim), Val: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))})
	}
	return req
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reqs := []SolveRequest{EncodeQUBO(benchShapedQUBO()), {Dim: 1}, {Dim: MaxWireDim, Terms: []WireTerm{{I: MaxWireDim - 1, J: 0, Val: math.Copysign(0, -1)}}}}
	for i := 0; i < 200; i++ {
		reqs = append(reqs, randomRequest(rng))
	}
	for i, req := range reqs {
		b, ok := req.AppendWire(nil)
		if !ok {
			t.Fatalf("request %d has no binary form", i)
		}
		var got SolveRequest
		if err := got.UnmarshalWire(b); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request %d: round trip\n  sent %+v\n  got  %+v", i, req, got)
		}
		for k := range req.Terms {
			if math.Signbit(req.Terms[k].Val) != math.Signbit(got.Terms[k].Val) {
				t.Fatalf("request %d term %d: sign of zero lost", i, k)
			}
		}
	}
}

// TestBinaryFormOnlyForQUBO: every request that is not a plain, valid
// QUBO, and every reply with an admin answer, stays JSON.
func TestBinaryFormOnlyForQUBO(t *testing.T) {
	q := EncodeQUBO(benchShapedQUBO())
	classed := q
	classed.Class = 2
	for name, req := range map[string]SolveRequest{
		"profile":      {Profile: &WireProfile{PreProcessNS: 1}},
		"ping":         {Ping: true},
		"admin":        {Admin: &WireAdmin{Verb: AdminStatus}},
		"class":        classed,
		"dim 0":        {},
		"dim too big":  {Dim: MaxWireDim + 1},
		"index":        {Dim: 2, Terms: []WireTerm{{I: 0, J: 2, Val: 1}}},
		"negative":     {Dim: 2, Terms: []WireTerm{{I: -1, J: 1, Val: 1}}},
		"NaN":          {Dim: 2, Terms: []WireTerm{{I: 0, J: 1, Val: math.NaN()}}},
		"infinite val": {Dim: 2, Terms: []WireTerm{{I: 0, J: 1, Val: math.Inf(-1)}}},
	} {
		if _, ok := req.AppendWire(nil); ok {
			t.Errorf("%s request has a binary form", name)
		}
	}
	if _, ok := (SolveResponse{OK: true, Admin: &WireAdminReply{Epoch: 1}}).AppendWire(nil); ok {
		t.Error("admin reply has a binary form")
	}
}

// TestBinaryFormsCoverEveryField: the binary forms list their fields by
// hand, so a field added to a wire type would silently not travel in
// binary. A new field must get a binary encoding (or, on a request, keep
// the requests that set it JSON in binaryForm) before this list changes.
func TestBinaryFormsCoverEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{SolveRequest{}, []string{"Dim", "Terms", "Profile", "Ping", "Admin", "Class", "Priority", "Weight"}},
		{WireTerm{}, []string{"I", "J", "Val"}},
		{SolveResponse{}, []string{"OK", "Error", "Index", "Energy", "Binary", "Reads", "BrokenChains",
			"QueueWaitUS", "QPUWaitUS", "Stage1US", "Stage2US", "Stage3US", "TotalUS", "Retries", "Routing", "Admin"}},
		{WireRouting{}, []string{"Shard", "Home", "Stolen", "Redispatches", "Epoch"}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s fields = %v, binary form covers %v", typ.Name(), got, c.want)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := []SolveResponse{
		{},
		{Error: "service: dim 0 < 1"},
		benchShapedReply(),
		{OK: true, Index: -1, Energy: math.Inf(-1), Retries: 3, Routing: &WireRouting{Shard: 0, Home: 2, Stolen: true, Redispatches: 1, Epoch: math.MaxInt64}},
		{OK: true, Energy: math.Copysign(0, -1), QueueWaitUS: math.MinInt64, TotalUS: math.MaxInt64},
	}
	for i, resp := range resps {
		b, ok := resp.AppendWire(nil)
		if !ok {
			t.Fatalf("reply %d has no binary form", i)
		}
		var got SolveResponse
		if err := got.UnmarshalWire(b); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) || math.Signbit(got.Energy) != math.Signbit(resp.Energy) {
			t.Fatalf("reply %d: round trip\n  sent %+v\n  got  %+v", i, resp, got)
		}
		if err := got.UnmarshalWire(append(b, 0)); err == nil {
			t.Fatalf("reply %d: trailing byte accepted", i)
		}
	}
}

// JSON-only twins of the wire messages: a defined type has none of the
// original's methods, so it frames as the same JSON but never in binary.
type (
	jsonRequest  SolveRequest
	jsonResponse SolveResponse
)

// BenchmarkSolveCodec times encoding and decoding one frame of a solve
// request (a 16-variable, 19-edge MAX-CUT QUBO) and of its routed reply, as
// JSON and in binary form, through the framing the wire uses. frame-bytes
// is the frame's length, header included.
func BenchmarkSolveCodec(b *testing.B) {
	req, resp := EncodeQUBO(benchShapedQUBO()), benchShapedReply()
	jreq, jresp := jsonRequest(req), jsonResponse(resp)
	for _, c := range []struct {
		name string
		v    any
		into func() any
	}{
		{"request/json", jreq, func() any { return new(jsonRequest) }},
		{"request/binary", req, func() any { return new(SolveRequest) }},
		{"reply/json", jresp, func() any { return new(jsonResponse) }},
		{"reply/binary", resp, func() any { return new(SolveResponse) }},
	} {
		var frame bytes.Buffer
		if err := qpuserver.WriteMessage(&frame, c.v); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportMetric(float64(frame.Len()), "frame-bytes")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := qpuserver.WriteMessage(&buf, c.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportMetric(float64(frame.Len()), "frame-bytes")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := qpuserver.ReadMessage(bytes.NewReader(frame.Bytes()), c.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// roundTripFrame sends one raw frame on conn and returns the reply's
// payload and its decoded value.
func roundTripFrame(t *testing.T, conn net.Conn, frame []byte) ([]byte, SolveResponse) {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("reading the reply: %v", err)
	}
	var resp SolveResponse
	if err := qpuserver.ReadMessage(bytes.NewReader(append(hdr[:], payload...)), &resp); err != nil {
		t.Fatalf("decoding the reply: %v", err)
	}
	return payload, resp
}

// TestServeAnswersBothEncodings: one QUBO sent to a fresh service as a JSON
// frame (an older or hand-written client) and as a binary frame gets the
// same answer, each reply in its request's encoding; ping, profile and
// admin frames, and their replies, stay JSON.
func TestServeAnswersBothEncodings(t *testing.T) {
	q := qubo.MaxCut(graph.Cycle(7), nil)
	var bin bytes.Buffer
	if err := qpuserver.WriteMessage(&bin, EncodeQUBO(q)); err != nil {
		t.Fatal(err)
	}
	if bin.Bytes()[4] != qpuserver.BinaryTag {
		t.Fatal("a QUBO request did not frame in binary")
	}
	var answers []SolveResponse
	for _, frame := range [][]byte{jsonFrame(t, EncodeQUBO(q)), bin.Bytes()} {
		svc, err := New(Options{Workers: 1, Fleet: 1, Base: testBase(), Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		payload, resp := roundTripFrame(t, conn, frame)
		if payload[0] != frame[4] {
			t.Fatalf("request opening with %#x answered with %#x", frame[4], payload[0])
		}
		if !resp.OK {
			t.Fatalf("solve failed: %s", resp.Error)
		}
		answers = append(answers, resp)
		for name, req := range map[string]SolveRequest{
			"ping":    {Ping: true},
			"profile": EncodeProfile(arch.JobProfile{PreProcess: 10 * time.Microsecond}),
			"admin":   {Admin: &WireAdmin{Verb: AdminStatus}},
		} {
			var buf bytes.Buffer
			if err := qpuserver.WriteMessage(&buf, req); err != nil {
				t.Fatal(err)
			}
			if buf.Bytes()[4] != '{' {
				t.Fatalf("%s request framed as %#x, want JSON", name, buf.Bytes()[4])
			}
			if payload, _ := roundTripFrame(t, conn, buf.Bytes()); payload[0] != '{' {
				t.Fatalf("%s reply framed as %#x, want JSON", name, payload[0])
			}
		}
		conn.Close()
		svc.CloseListener()
		svc.Drain()
	}
	a, b := answers[0], answers[1]
	if a.Index != b.Index || a.Energy != b.Energy || !bytes.Equal(a.Binary, b.Binary) ||
		a.Reads != b.Reads || a.BrokenChains != b.BrokenChains {
		t.Fatalf("JSON and binary frames got different answers:\n  json   %+v\n  binary %+v", a, b)
	}
}
