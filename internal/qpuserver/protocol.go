// Package qpuserver implements the client-server QPU interface of the
// paper's asymmetric architecture (Fig. 1a): "This loose architecture may be
// understood conceptually as a classical client requesting a response from a
// quantum server via a local area network interface." The paper notes the
// D-Wave QPUs support exactly this interface but leaves it unmodeled; this
// package provides it, so the split-execution pipeline can run with the QPU
// behind a real network boundary and the network contribution to stage
// timing can be measured (the paper predicts it is not the dominant cost —
// the server reports both its own QPU-model time and the client observes
// wall-clock round trips, making the comparison direct).
//
// The wire protocol is length-prefixed JSON over TCP: one request, one
// response per message, multiple messages per connection. The package also
// holds the wire's one server side (Endpoint, via Serve) and one client
// side (Conn), which every TCP tier uses: the QPU server and Client here,
// the solver service (`splitexec serve`) and the router (`splitexec route`)
// above them. A fix to accept, shutdown or connection reuse therefore lands
// in all three tiers at once.
package qpuserver

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qubo"
)

// MaxMessageBytes bounds a single protocol message (16 MiB), protecting the
// server from hostile or corrupt length prefixes.
const MaxMessageBytes = 16 << 20

// MaxProgramDim bounds the spin count of an OpProgram request. Biases and
// couplings travel sparse, so a request's dim costs it no payload bytes and
// MaxMessageBytes does not bound it: DecodeProgram rejects a larger dim
// before it allocates the model. 65536 spins is far beyond every modeled
// topology (C(12,12,4) has 1152 qubits); a server additionally rejects any
// program larger than its own hardware graph.
const MaxProgramDim = 1 << 16

// Op enumerates protocol operations.
type Op string

// Protocol operations.
const (
	OpProgram Op = "program" // load a hardware Ising program
	OpExecute Op = "execute" // run N reads, return samples
	OpStatus  Op = "status"  // query device state
	OpReset   Op = "reset"   // clear program and virtual clock
)

// Request is the client→server message.
type Request struct {
	Op Op `json:"op"`
	// Program payload (OpProgram).
	Dim    int              `json:"dim,omitempty"`
	H      map[int]float64  `json:"h,omitempty"`      // sparse biases
	J      []CouplingTriple `json:"j,omitempty"`      // sparse couplings
	Offset float64          `json:"offset,omitempty"` // energy offset
	// Execute payload (OpExecute).
	Reads int   `json:"reads,omitempty"`
	Seed  int64 `json:"seed,omitempty"`
}

// CouplingTriple is one sparse coupling entry.
type CouplingTriple struct {
	U, V int
	Val  float64
}

// Response is the server→client message.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Execute results.
	Samples  []SampleWire `json:"samples,omitempty"`
	ReadsRun int          `json:"readsRun,omitempty"`

	// Status / accounting (microseconds of modeled QPU time).
	Programmed    bool  `json:"programmed,omitempty"`
	ProgramTimeUS int64 `json:"programTimeUs,omitempty"`
	ExecuteTimeUS int64 `json:"executeTimeUs,omitempty"`
	TotalReads    int   `json:"totalReads,omitempty"`
}

// SampleWire is one readout on the wire: spins packed as bytes (0 → -1,
// 1 → +1) to keep messages compact.
type SampleWire struct {
	Spins  []byte  `json:"spins"`
	Energy float64 `json:"energy"`
}

// PackSpins converts ±1 spins to the wire encoding.
func PackSpins(s []int8) []byte {
	out := make([]byte, len(s))
	for i, v := range s {
		if v > 0 {
			out[i] = 1
		}
	}
	return out
}

// UnpackSpins inverts PackSpins.
func UnpackSpins(b []byte) []int8 {
	out := make([]int8, len(b))
	for i, v := range b {
		if v != 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// ProgramRequest encodes an Ising model as an OpProgram request.
func ProgramRequest(m *qubo.Ising) Request {
	req := Request{Op: OpProgram, Dim: m.Dim(), Offset: m.Offset, H: map[int]float64{}}
	for i, h := range m.H {
		if h != 0 {
			req.H[i] = h
		}
	}
	for _, e := range m.Edges() {
		req.J = append(req.J, CouplingTriple{U: e.U, V: e.V, Val: m.Coupling(e.U, e.V)})
	}
	return req
}

// DecodeProgram reconstructs the Ising model from an OpProgram request.
func DecodeProgram(req Request) (*qubo.Ising, error) {
	if req.Dim < 0 {
		return nil, fmt.Errorf("qpuserver: negative dim %d", req.Dim)
	}
	if req.Dim > MaxProgramDim {
		return nil, fmt.Errorf("qpuserver: dim %d exceeds limit %d", req.Dim, MaxProgramDim)
	}
	m := qubo.NewIsing(req.Dim)
	m.Offset = req.Offset
	for i, h := range req.H {
		if i < 0 || i >= req.Dim {
			return nil, fmt.Errorf("qpuserver: bias index %d out of range", i)
		}
		m.H[i] = h
	}
	for _, c := range req.J {
		if c.U < 0 || c.U >= req.Dim || c.V < 0 || c.V >= req.Dim || c.U == c.V {
			return nil, fmt.Errorf("qpuserver: bad coupling (%d,%d)", c.U, c.V)
		}
		m.SetCoupling(c.U, c.V, c.Val)
	}
	return m, nil
}

// WriteMessage frames v as length-prefixed JSON on w.
func WriteMessage(w io.Writer, v interface{}) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("qpuserver: encode: %w", err)
	}
	if len(payload) > MaxMessageBytes {
		return fmt.Errorf("qpuserver: message of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadMessage reads one length-prefixed JSON message from r into v.
func ReadMessage(r io.Reader, v interface{}) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageBytes {
		return fmt.Errorf("qpuserver: message of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("qpuserver: decode: %w", err)
	}
	return nil
}

// validateProgramGraph optionally checks a program against a hardware
// topology: every coupling must be a real coupler.
func validateProgramGraph(m *qubo.Ising, hw *graph.Graph) error {
	if hw == nil {
		return nil
	}
	if m.Dim() > hw.Order() {
		return fmt.Errorf("qpuserver: program uses %d qubits, hardware has %d", m.Dim(), hw.Order())
	}
	for _, e := range m.Edges() {
		if !hw.HasEdge(e.U, e.V) {
			return fmt.Errorf("qpuserver: coupling (%d,%d) is not a hardware coupler", e.U, e.V)
		}
	}
	return nil
}
