package service

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
)

// FuzzDecodeRequest drives the decoding a serve front-end applies to every
// inbound frame: read a SolveRequest, then decode its profile when one is
// set and its QUBO otherwise. Hostile frames must error, never panic, and
// whatever is accepted must sit inside the wire limits.
func FuzzDecodeRequest(f *testing.F) {
	frame := func(req SolveRequest) []byte {
		var buf bytes.Buffer
		if err := qpuserver.WriteMessage(&buf, req); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	q := qubo.NewQUBO(3)
	q.Set(0, 0, 1)
	q.Set(0, 1, -2)
	q.Set(1, 2, -2)
	f.Add(frame(EncodeQUBO(q)))
	f.Add(frame(EncodeProfile(arch.JobProfile{PreProcess: time.Millisecond, QPUService: 400 * time.Microsecond})))
	f.Add(frame(SolveRequest{Dim: MaxWireDim + 1}))
	f.Add(frame(SolveRequest{Dim: 2, Terms: []WireTerm{{I: 0, J: 5, Val: 1}}}))
	// Two near-MaxInt64 phases overflow Total() to a negative duration.
	f.Add(frame(SolveRequest{Profile: &WireProfile{PreProcessNS: math.MaxInt64, QPUServiceNS: math.MaxInt64}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if err := qpuserver.ReadMessage(bytes.NewReader(data), &req); err != nil {
			return
		}
		if req.Profile != nil {
			p, err := DecodeProfile(req.Profile)
			if err != nil {
				return
			}
			for _, d := range []time.Duration{p.PreProcess, p.Network, p.QPUService, p.PostProcess} {
				if d < 0 {
					t.Fatalf("accepted a negative phase: %+v", p)
				}
			}
			if total := p.Total(); total < 0 || total > MaxWireProfileTotal {
				t.Fatalf("accepted profile total %v outside [0, %v]", total, MaxWireProfileTotal)
			}
			return
		}
		got, err := DecodeQUBO(req)
		if err != nil {
			return
		}
		if got.Dim() < 1 || got.Dim() > MaxWireDim {
			t.Fatalf("accepted dim %d outside [1, %d]", got.Dim(), MaxWireDim)
		}
	})
}
