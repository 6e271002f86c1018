package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
)

// jsonFrame frames v as JSON whatever its type, as an older client or a
// hand-written one sends it.
func jsonFrame(tb testing.TB, v any) []byte {
	payload, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// binaryFrame frames a hand-built binary payload.
func binaryFrame(body ...byte) []byte {
	payload := append([]byte{qpuserver.BinaryTag}, body...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// FuzzDecodeRequest drives the decoding a serve front-end applies to every
// inbound frame, JSON or binary: read a SolveRequest, then decode its
// profile when one is set and its QUBO otherwise. Hostile frames must
// error, never panic, and whatever is accepted must sit inside the wire
// limits. A binary frame's term count is bounded by its bytes before
// anything is allocated, and an accepted binary request is a plain QUBO
// inside MaxWireDim and its index ranges whose binary form reads back equal.
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
	bin := frame(EncodeQUBO(q)) // a QUBO request frames in binary
	f.Add(bin)
	f.Add(jsonFrame(f, EncodeQUBO(q)))
	f.Add(jsonFrame(f, EncodeQUBO(benchShapedQUBO())))
	f.Add(frame(EncodeProfile(arch.JobProfile{PreProcess: time.Millisecond, QPUService: 400 * time.Microsecond})))
	f.Add(frame(SolveRequest{Dim: MaxWireDim + 1}))
	f.Add(frame(SolveRequest{Dim: 2, Terms: []WireTerm{{I: 0, J: 5, Val: 1}}}))
	// Two near-MaxInt64 phases overflow Total() to a negative duration.
	f.Add(frame(SolveRequest{Profile: &WireProfile{PreProcessNS: math.MaxInt64, QPUServiceNS: math.MaxInt64}}))
	f.Add(bin[:len(bin)-3])                                      // truncated binary frame
	f.Add(binaryFrame(3, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F))          // 2^32-1 terms in no bytes
	f.Add(binaryFrame(3, 2, 0, 0))                               // two terms, one index pair
	f.Add(binaryFrame(0x81, 0x08, 0))                            // dim MaxWireDim+1
	f.Add(append(bin, 0))                                        // trailing byte (length prefix stale)
	f.Add(binaryFrame(append(bin[5:], 0)...))                    // trailing byte inside the frame
	f.Add(binaryFrame(2, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0xF8, 0x7F)) // NaN coefficient

	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if err := qpuserver.ReadMessage(bytes.NewReader(data), &req); err != nil {
			return
		}
		if len(data) > 4 && data[4] == qpuserver.BinaryTag {
			if !req.binaryForm() {
				t.Fatalf("accepted a binary request with no binary form: %+v", req)
			}
			if req.Dim < 1 || req.Dim > MaxWireDim {
				t.Fatalf("accepted binary dim %d outside [1, %d]", req.Dim, MaxWireDim)
			}
			for _, term := range req.Terms {
				if term.I < 0 || term.I >= req.Dim || term.J < 0 || term.J >= req.Dim {
					t.Fatalf("accepted binary term (%d,%d) for dim %d", term.I, term.J, req.Dim)
				}
			}
			if n := len(req.Terms); n*minTermBytes > len(data) {
				t.Fatalf("%d terms decoded from a %d-byte frame", n, len(data))
			}
			b, _ := req.AppendWire(nil)
			var again SolveRequest
			if err := again.UnmarshalWire(b); err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("binary request %+v re-read as %+v (%v)", req, again, err)
			}
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

// FuzzDecodeResponse drives a client's decoding of a binary reply frame:
// flags, error text, assignment bytes and routing. Hostile frames must
// error, never panic; a length is bounded by the frame's bytes before
// anything is allocated; unknown flags and trailing bytes are refused; and
// an accepted reply re-encodes to the binary form it decodes from.
func FuzzDecodeResponse(f *testing.F) {
	frame := func(resp SolveResponse) []byte {
		var buf bytes.Buffer
		if err := qpuserver.WriteMessage(&buf, resp); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	routed := frame(benchShapedReply())
	f.Add(routed)
	f.Add(frame(SolveResponse{Error: "service: dim 0 < 1"}))
	f.Add(frame(SolveResponse{OK: true, Energy: math.NaN(), Routing: &WireRouting{Stolen: true, Epoch: -1}}))
	f.Add(jsonFrame(f, benchShapedReply()))
	f.Add(routed[:len(routed)-2])                         // truncated routing
	f.Add(binaryFrame(respOK | 0x80))                     // unknown flag
	f.Add(binaryFrame(respError, 0xFF, 0xFF, 0xFF, 0x7F)) // error text longer than the frame
	f.Add(binaryFrame(append(routed[5:], 0)...))          // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp SolveResponse
		if err := qpuserver.ReadMessage(bytes.NewReader(data), &resp); err != nil {
			return
		}
		if len(data) <= 4 || data[4] != qpuserver.BinaryTag {
			return
		}
		if len(resp.Error)+len(resp.Binary) > len(data) {
			t.Fatalf("decoded %d bytes of text and assignment from a %d-byte frame", len(resp.Error)+len(resp.Binary), len(data))
		}
		b, ok := resp.AppendWire(nil)
		if !ok {
			t.Fatalf("accepted binary reply %+v has no binary form", resp)
		}
		// Compare encodings, not values: a NaN energy is never equal to itself.
		var again SolveResponse
		if err := again.UnmarshalWire(b); err != nil {
			t.Fatalf("binary reply %+v does not re-read: %v", resp, err)
		}
		if b2, _ := again.AppendWire(nil); !bytes.Equal(b, b2) {
			t.Fatalf("binary reply %+v re-read as %+v", resp, again)
		}
	})
}
