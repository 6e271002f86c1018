package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The binary forms of a QUBO solve request and of its reply. A binary frame
// carries one of them after qpuserver.BinaryTag; profile, ping and admin
// requests, and replies that carry an admin answer, have none and travel as
// JSON. Both forms carry every value exactly: integers as varints
// (encoding/binary), floats as their eight IEEE-754 bytes, little-endian.
// A binary frame needs a server that knows these forms; JSON works with
// every server.
//
// Request: uvarint dim, uvarint term count, then per term uvarint I,
// uvarint J and float64 Val.
//
// Reply: a flags byte (respOK, respError, respRouting, respStolen); the
// error text (uvarint length, bytes) when respError is set; varint Index;
// float64 Energy; the assignment (uvarint length, bytes); varints Reads,
// BrokenChains, QueueWaitUS, QPUWaitUS, Stage1US, Stage2US, Stage3US,
// TotalUS and Retries; and, when respRouting is set, varints Shard, Home,
// Redispatches and Epoch.

// Reply flags.
const (
	respOK = 1 << iota
	respError
	respRouting
	respStolen // WireRouting.Stolen
)

// minTermBytes is the length of the shortest binary term: two one-byte
// indices and a float. It bounds a frame's term count before allocation.
const minTermBytes = 1 + 1 + 8

// binaryForm reports whether r travels in binary: a QUBO request that the
// binary decoder accepts. Everything else — profile, ping and admin
// requests, and a QUBO the server must refuse (a dim or index out of range,
// a coefficient JSON cannot carry) — travels as JSON and is answered
// exactly as before.
func (r SolveRequest) binaryForm() bool {
	if r.Profile != nil || r.Ping || r.Admin != nil || r.Class != 0 || r.Priority != 0 || r.Weight != 0 ||
		r.Dim < 1 || r.Dim > MaxWireDim {
		return false
	}
	for _, t := range r.Terms {
		if t.I < 0 || t.I >= r.Dim || t.J < 0 || t.J >= r.Dim || !finite(t.Val) {
			return false
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// AppendWire appends the binary form of a QUBO request to b; see
// binaryForm for the requests that have none.
func (r SolveRequest) AppendWire(b []byte) ([]byte, bool) {
	if !r.binaryForm() {
		return b, false
	}
	b = binary.AppendUvarint(b, uint64(r.Dim))
	b = binary.AppendUvarint(b, uint64(len(r.Terms)))
	for _, t := range r.Terms {
		b = binary.AppendUvarint(b, uint64(t.I))
		b = binary.AppendUvarint(b, uint64(t.J))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Val))
	}
	return b, true
}

// UnmarshalWire decodes the binary form of a QUBO request. It accepts only
// what AppendWire emits: a dim inside [1, MaxWireDim], in-range indices,
// finite coefficients and no trailing bytes.
func (r *SolveRequest) UnmarshalWire(data []byte) error {
	d := wireDecoder{b: data}
	dim, count := d.uvarint(), d.uvarint()
	if d.err != nil {
		return d.err
	}
	if dim < 1 || dim > MaxWireDim {
		return fmt.Errorf("service: binary request dim %d outside [1, %d]", dim, MaxWireDim)
	}
	if count > uint64(len(d.b)/minTermBytes) {
		return fmt.Errorf("service: binary request claims %d terms in %d bytes", count, len(d.b))
	}
	var terms []WireTerm
	if count > 0 {
		terms = make([]WireTerm, count)
	}
	for k := range terms {
		i, j, val := d.uvarint(), d.uvarint(), d.float()
		if d.err != nil {
			return d.err
		}
		if i >= dim || j >= dim || !finite(val) {
			return fmt.Errorf("service: binary term (%d,%d)=%v invalid for dim %d", i, j, val, dim)
		}
		terms[k] = WireTerm{I: int(i), J: int(j), Val: val}
	}
	if err := d.finish(); err != nil {
		return err
	}
	*r = SolveRequest{Dim: int(dim), Terms: terms}
	return nil
}

// AppendWire appends the binary form of a reply to b. A reply carrying an
// admin answer has none.
func (r SolveResponse) AppendWire(b []byte) ([]byte, bool) {
	if r.Admin != nil {
		return b, false
	}
	var flags byte
	if r.OK {
		flags |= respOK
	}
	if r.Error != "" {
		flags |= respError
	}
	if r.Routing != nil {
		flags |= respRouting
		if r.Routing.Stolen {
			flags |= respStolen
		}
	}
	b = append(b, flags)
	if r.Error != "" {
		b = binary.AppendUvarint(b, uint64(len(r.Error)))
		b = append(b, r.Error...)
	}
	b = binary.AppendVarint(b, int64(r.Index))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Energy))
	b = binary.AppendUvarint(b, uint64(len(r.Binary)))
	b = append(b, r.Binary...)
	for _, v := range [...]int64{int64(r.Reads), int64(r.BrokenChains), r.QueueWaitUS, r.QPUWaitUS,
		r.Stage1US, r.Stage2US, r.Stage3US, r.TotalUS, int64(r.Retries)} {
		b = binary.AppendVarint(b, v)
	}
	if rt := r.Routing; rt != nil {
		for _, v := range [...]int64{int64(rt.Shard), int64(rt.Home), int64(rt.Redispatches), rt.Epoch} {
			b = binary.AppendVarint(b, v)
		}
	}
	return b, true
}

// UnmarshalWire decodes the binary form of a reply, rejecting unknown flags
// and trailing bytes.
func (r *SolveResponse) UnmarshalWire(data []byte) error {
	if len(data) == 0 {
		return errShortFrame
	}
	flags := data[0]
	if flags&^(respOK|respError|respRouting|respStolen) != 0 {
		return fmt.Errorf("service: binary reply has unknown flags %#x", flags)
	}
	d := wireDecoder{b: data[1:]}
	out := SolveResponse{OK: flags&respOK != 0}
	if flags&respError != 0 {
		out.Error = string(d.bytes())
	}
	out.Index = int(d.varint())
	out.Energy = d.float()
	if bits := d.bytes(); len(bits) > 0 {
		out.Binary = append([]byte(nil), bits...)
	}
	out.Reads = int(d.varint())
	out.BrokenChains = int(d.varint())
	out.QueueWaitUS = d.varint()
	out.QPUWaitUS = d.varint()
	out.Stage1US = d.varint()
	out.Stage2US = d.varint()
	out.Stage3US = d.varint()
	out.TotalUS = d.varint()
	out.Retries = int(d.varint())
	if flags&respRouting != 0 {
		out.Routing = &WireRouting{
			Shard:        int(d.varint()),
			Home:         int(d.varint()),
			Stolen:       flags&respStolen != 0,
			Redispatches: int(d.varint()),
			Epoch:        d.varint(),
		}
	}
	if err := d.finish(); err != nil {
		return err
	}
	*r = out
	return nil
}

var errShortFrame = errors.New("service: binary frame ends early")

// wireDecoder reads a binary form front to back and keeps the first error;
// every read after it returns zero.
type wireDecoder struct {
	b   []byte
	err error
}

func (d *wireDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errShortFrame
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = errShortFrame
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireDecoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = errShortFrame
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// bytes reads a uvarint length and that many bytes, aliasing the frame.
func (d *wireDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.b)) {
		d.err = errShortFrame
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// finish reports the first error, or trailing bytes.
func (d *wireDecoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		return fmt.Errorf("service: %d trailing bytes after a binary form", len(d.b))
	}
	return d.err
}
