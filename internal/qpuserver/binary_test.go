package qpuserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
)

// binMsg is a message with a binary form (one uvarint), unless JSONOnly is
// set: the shape of a wire type such as the solver service's QUBO solve.
type binMsg struct {
	N        uint64 `json:"n"`
	JSONOnly bool   `json:"jsonOnly,omitempty"`
}

func (m binMsg) AppendWire(b []byte) ([]byte, bool) {
	if m.JSONOnly {
		return b, false
	}
	return binary.AppendUvarint(b, m.N), true
}

func (m *binMsg) UnmarshalWire(data []byte) error {
	v, n := binary.Uvarint(data)
	if n <= 0 || n != len(data) {
		return errors.New("binMsg: bad varint")
	}
	*m = binMsg{N: v}
	return nil
}

// rawFrame frames a payload by hand.
func rawFrame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// readRawFrame reads one frame's payload off conn.
func readRawFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("reading a reply header: %v", err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("reading a reply payload: %v", err)
	}
	return payload
}

// TestEndpointRepliesInRequestEncoding: an endpoint answers a binary frame
// in binary and a JSON frame in JSON, on one connection, and a reply with
// no binary form goes out as JSON even to a binary request.
func TestEndpointRepliesInRequestEncoding(t *testing.T) {
	ep, err := Serve("127.0.0.1:0", 4, func(m binMsg) binMsg {
		return binMsg{N: m.N + 1, JSONOnly: m.N == 99}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn, err := net.Dial("tcp", ep.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, c := range []struct {
		payload []byte
		want    byte // first byte of the reply payload
		n       uint64
	}{
		{[]byte(`{"n":41}`), '{', 42},
		{[]byte{BinaryTag, 7}, BinaryTag, 8},
		{[]byte(`{"n":1}`), '{', 2},
		{[]byte{BinaryTag, 99}, '{', 100},
	} {
		if _, err := conn.Write(rawFrame(c.payload)); err != nil {
			t.Fatal(err)
		}
		reply := readRawFrame(t, conn)
		if reply[0] != c.want {
			t.Fatalf("request %q: reply %q opens with %#x, want %#x", c.payload, reply, reply[0], c.want)
		}
		var got binMsg
		if err := ReadMessage(bytes.NewReader(rawFrame(reply)), &got); err != nil || got.N != c.n {
			t.Fatalf("request %q: reply %+v (%v), want n=%d", c.payload, got, err, c.n)
		}
	}
}

// TestEndpointDropsBinaryFrameWithoutForm: a binary frame for a type with
// no binary form (the QPU protocol's Request) drops the connection, as a
// malformed JSON frame does, and the server keeps serving.
func TestEndpointDropsBinaryFrameWithoutForm(t *testing.T) {
	s := NewServer(anneal.DW2Timings(), anneal.SamplerOptions{})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(rawFrame([]byte{BinaryTag, 1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(make([]byte, 16)); err == nil {
		t.Fatalf("server answered a binary frame for a JSON-only type with %d bytes", n)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Fatalf("server unhealthy after the binary frame: %v", err)
	}
}

// TestConnSendsBinaryForm: a Conn sends a message in binary when its value
// has a binary form and as JSON otherwise, and decodes a reply in either
// encoding.
func TestConnSendsBinaryForm(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	seen := make(chan byte, 4)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Reply to each frame in the other encoding.
		for _, reply := range [][]byte{[]byte(`{"n":5}`), {BinaryTag, 6}, {BinaryTag, 7}} {
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
			if _, err := io.ReadFull(conn, payload); err != nil {
				return
			}
			seen <- payload[0]
			conn.Write(rawFrame(reply))
		}
	}()
	c, err := DialConn(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, c2 := range []struct {
		req  any
		sent byte
		n    uint64
	}{
		{binMsg{N: 1}, BinaryTag, 5},
		{binMsg{N: 2, JSONOnly: true}, '{', 6},
		{Request{Op: OpStatus}, '{', 7},
	} {
		var got binMsg
		if err := c.RoundTrip(c2.req, &got); err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		if sent := <-seen; sent != c2.sent || got.N != c2.n {
			t.Fatalf("round trip %d: sent a frame opening with %#x (want %#x), got n=%d (want %d)", i, sent, c2.sent, got.N, c2.n)
		}
	}
}

// countingConn counts the Write calls made on a connection.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestConnWritesEachFrameOnce: every frame, JSON or binary, reaches the
// connection in one Write with its header, so a request never leaves as a
// lone 4-byte segment.
func TestConnWritesEachFrameOnce(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	cc := &countingConn{Conn: client}
	defer cc.Close()
	msgs := []any{binMsg{N: 300}, binMsg{N: 1, JSONOnly: true}, Request{Op: OpStatus},
		ProgramRequest(randomIsing(rand.New(rand.NewSource(1)), 8))}
	done := make(chan error, 1)
	go func() {
		for range msgs {
			var m binMsg // JSON frames of the other types decode leniently
			if _, err := readFrame(server, &m); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, m := range msgs {
		before := cc.writes
		var err error
		if i%2 == 0 {
			err = WriteMessage(cc, m)
		} else {
			err = writeFrame(cc, m, false) // an endpoint's reply to a JSON request
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n := cc.writes - before; n != 1 {
			t.Fatalf("frame %d (%T) took %d writes, want 1", i, m, n)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("reading the frames back: %v", err)
	}
}
