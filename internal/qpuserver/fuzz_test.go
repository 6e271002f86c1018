package qpuserver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"github.com/splitexec/splitexec/internal/qubo"
)

// The protocol surface is the part of the system an adversary can reach:
// these fuzz targets pin the invariant that malformed lengths, truncated
// frames and junk JSON error out and never panic, and the property tests
// pin Pack→Unpack and Encode→Decode as identities on valid inputs.

// FuzzUnpackSpins: any byte string decodes to a ±1 vector of the same
// length, and re-packing normalizes every nonzero byte to 1.
func FuzzUnpackSpins(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 255})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		spins := UnpackSpins(b)
		if len(spins) != len(b) {
			t.Fatalf("length %d != input %d", len(spins), len(b))
		}
		for i, s := range spins {
			if s != -1 && s != 1 {
				t.Fatalf("spin %d = %d, want ±1", i, s)
			}
		}
		repacked := PackSpins(spins)
		for i := range b {
			want := byte(0)
			if b[i] != 0 {
				want = 1
			}
			if repacked[i] != want {
				t.Fatalf("byte %d: normalized to %d, want %d", i, repacked[i], want)
			}
		}
	})
}

// FuzzDecodeProgram: arbitrary JSON request payloads either decode into a
// structurally valid Ising model or error — never panic, never produce a
// model inconsistent with its declared dimension.
func FuzzDecodeProgram(f *testing.F) {
	valid, _ := json.Marshal(ProgramRequest(randomIsing(rand.New(rand.NewSource(1)), 6)))
	f.Add(valid)
	f.Add([]byte(`{"op":"program","dim":-1}`))
	f.Add([]byte(`{"op":"program","dim":4,"h":{"9":1}}`))
	f.Add([]byte(`{"op":"program","dim":4,"j":[{"U":0,"V":0,"Val":1}]}`))
	f.Add([]byte(`{"op":"program","dim":1e9}`))
	f.Add([]byte(`{"op":"program","dim":10000000000}`)) // 80 GB of biases from 34 bytes
	f.Add([]byte(`{"op":"program","dim":65537,"h":{"65536":1}}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if err := json.Unmarshal(payload, &req); err != nil {
			return // not a Request; DecodeProgram's contract starts at a Request
		}
		m, err := DecodeProgram(req)
		if err != nil {
			return
		}
		if req.Dim > MaxProgramDim {
			t.Fatalf("decoded dim %d above MaxProgramDim", req.Dim)
		}
		if m.Dim() != req.Dim {
			t.Fatalf("decoded dim %d != request dim %d", m.Dim(), req.Dim)
		}
		for _, e := range m.Edges() {
			if e.U < 0 || e.U >= m.Dim() || e.V < 0 || e.V >= m.Dim() || e.U == e.V {
				t.Fatalf("decoded model has out-of-range coupling (%d,%d)", e.U, e.V)
			}
		}
	})
}

// FuzzReadMessage: arbitrary byte streams — corrupt length prefixes,
// truncated frames, junk JSON, tagged binary frames — must error or decode
// cleanly, never panic, and never allocate past the message limit. A tagged
// frame never decodes into a type without a binary form, and one that
// decodes into a type with one re-encodes to a frame that decodes equal.
func FuzzReadMessage(f *testing.F) {
	frame := func(payload []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		return append(hdr[:], payload...)
	}
	f.Add(frame([]byte(`{"op":"status"}`)))
	f.Add(frame([]byte(`{`)))                      // truncated JSON
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})          // hostile length prefix
	f.Add([]byte{0, 0})                            // truncated header
	f.Add(frame([]byte(`{"op":"execute"}`))[:6])   // truncated body
	f.Add(append(frame([]byte(`{}`)), 0xAA, 0xBB)) // trailing garbage
	f.Add(frame([]byte{BinaryTag}))                // tag alone
	f.Add(frame([]byte{BinaryTag, 0x2A}))          // a binMsg
	f.Add(frame([]byte{BinaryTag, 0x80}))          // truncated varint
	f.Add(frame([]byte{BinaryTag, 0x2A, 0x00}))    // trailing byte
	f.Add(frame([]byte{BinaryTag, 0x2A})[:5])      // truncated body
	f.Fuzz(func(t *testing.T, stream []byte) {
		tagged := len(stream) > 4 && stream[4] == BinaryTag
		var req Request
		err := ReadMessage(bytes.NewReader(stream), &req)
		if err == nil {
			if tagged {
				t.Fatal("a binary frame decoded into a type without a binary form")
			}
			// A successful read implies a well-formed frame: re-encoding
			// the decoded value must itself frame cleanly.
			var buf bytes.Buffer
			if err := WriteMessage(&buf, req); err != nil {
				t.Fatalf("re-encode of decoded message failed: %v", err)
			}
		}
		var m binMsg
		if err := ReadMessage(bytes.NewReader(stream), &m); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("re-encode of decoded binMsg failed: %v", err)
		}
		var again binMsg
		if err := ReadMessage(&buf, &again); err != nil || again != m {
			t.Fatalf("binMsg %+v re-read as %+v (%v)", m, again, err)
		}
	})
}

// randomIsing builds a random sparse Ising model on n spins.
func randomIsing(rng *rand.Rand, n int) *qubo.Ising {
	m := qubo.NewIsing(n)
	m.Offset = rng.NormFloat64()
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.7 {
			m.H[i] = rng.NormFloat64()
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				m.SetCoupling(i, j, rng.NormFloat64())
			}
		}
	}
	return m
}

// TestPackUnpackProperty: Pack→Unpack is the identity on random ±1 vectors.
func TestPackUnpackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(100)
		spins := make([]int8, n)
		for i := range spins {
			if rng.Intn(2) == 0 {
				spins[i] = -1
			} else {
				spins[i] = 1
			}
		}
		got := UnpackSpins(PackSpins(spins))
		if !reflect.DeepEqual(got, spins) {
			t.Fatalf("trial %d: round trip %v -> %v", trial, spins, got)
		}
	}
}

// TestProgramEncodeDecodeProperty: Encode→(JSON)→Decode reproduces random
// Ising models exactly, through the same marshaling path the wire uses.
func TestProgramEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		m := randomIsing(rng, 1+rng.Intn(12))
		payload, err := json.Marshal(ProgramRequest(m))
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var req Request
		if err := json.Unmarshal(payload, &req); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		got, err := DecodeProgram(req)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got.Dim() != m.Dim() || got.Offset != m.Offset {
			t.Fatalf("trial %d: dim/offset mismatch", trial)
		}
		for i := 0; i < m.Dim(); i++ {
			if got.H[i] != m.H[i] {
				t.Fatalf("trial %d: bias %d: %v != %v", trial, i, got.H[i], m.H[i])
			}
			for j := i + 1; j < m.Dim(); j++ {
				if got.Coupling(i, j) != m.Coupling(i, j) {
					t.Fatalf("trial %d: coupling (%d,%d): %v != %v",
						trial, i, j, got.Coupling(i, j), m.Coupling(i, j))
				}
			}
		}
	}
}

// TestWriteReadMessageProperty: WriteMessage→ReadMessage is the identity on
// random requests, including when frames arrive one byte at a time.
func TestWriteReadMessageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		req := ProgramRequest(randomIsing(rng, 1+rng.Intn(10)))
		req.Reads = rng.Intn(100)
		req.Seed = rng.Int63()
		var buf bytes.Buffer
		if err := WriteMessage(&buf, req); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		var got Request
		if err := ReadMessage(iotest(buf.Bytes()), &got); err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		// omitempty legitimately turns empty maps/slices into nil on the
		// wire; normalize before the exact comparison.
		if len(req.H) == 0 {
			req.H = nil
		}
		if len(got.H) == 0 {
			got.H = nil
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("trial %d: round trip\n  sent %+v\n  got  %+v", trial, req, got)
		}
	}
}

// iotest wraps a byte slice in a reader that returns one byte per Read,
// exercising the io.ReadFull paths of the framing.
func iotest(b []byte) io.Reader { return &oneByteReader{rest: b} }

type oneByteReader struct{ rest []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		return 0, io.EOF
	}
	p[0] = r.rest[0]
	r.rest = r.rest[1:]
	return 1, nil
}
