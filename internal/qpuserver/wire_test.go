package qpuserver

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
)

// statusEndpoint serves a trivial handler that answers every request OK.
func statusEndpoint(t *testing.T, maxConns int) *Endpoint {
	t.Helper()
	ep, err := Serve("127.0.0.1:0", maxConns, func(Request) Response {
		return Response{OK: true, TotalReads: 42}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func TestServeConnDropsGarbage(t *testing.T) {
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
	// A junk frame must make the server drop the connection, not crash.
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 'x'}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a garbage frame")
	}
	// The server must still accept fresh, well-formed connections.
	c2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Status(); err != nil {
		t.Fatalf("server unhealthy after garbage: %v", err)
	}
}

// TestServerListenBadAddr: a bind failure surfaces from Listen and leaves
// the server not listening; a second Listen on a listening server errors.
func TestServerListenBadAddr(t *testing.T) {
	s := NewServer(anneal.DW2Timings(), anneal.SamplerOptions{})
	if _, err := s.Listen("256.0.0.1:bad"); err == nil {
		t.Fatal("bad address accepted")
	}
	if s.Addr() != nil {
		t.Fatalf("failed Listen left address %v", s.Addr())
	}
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Listen("127.0.0.1:0"); err == nil {
		t.Error("second Listen accepted")
	}
}

// TestServerCloseWithIdleClient: Close must not wait for an idle client to
// hang up. It closes the client's connection, so the client's next call
// errors instead of reaching a server that is gone.
func TestServerCloseWithIdleClient(t *testing.T) {
	s, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked on an idle client connection")
	}
	if s.Addr() != nil {
		t.Errorf("closed server still reports address %v", s.Addr())
	}
	c.SetTimeout(2 * time.Second)
	if _, err := c.Status(); err == nil {
		t.Error("call after server Close succeeded")
	}
}

// TestEndpointShedsOverCap: connections beyond the cap are shed at once
// instead of committing decode memory and a handler goroutine, and the
// in-cap connection keeps working.
func TestEndpointShedsOverCap(t *testing.T) {
	addr := statusEndpoint(t, 1).Addr().String()
	var resp Response
	first, err := DialConn(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.RoundTrip(Request{Op: OpStatus}, &resp); err != nil {
		t.Fatalf("first connection: %v", err) // also forces registration
	}

	second, err := DialConn(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err) // TCP accept succeeds; the endpoint sheds after
	}
	defer second.Close()
	if err := second.RoundTrip(Request{Op: OpStatus}, &resp); err == nil {
		t.Error("over-cap connection was served")
	}

	if err := first.RoundTrip(Request{Op: OpStatus}, &resp); err != nil {
		t.Errorf("in-cap connection broken after shed: %v", err)
	}
}

// TestEndpointCloseRace: clients connect and send while Close runs, twice
// over. Close must return, every client must see its connection end, and
// the race detector must stay quiet. The cap is below the client count,
// so shedding races Close too.
func TestEndpointCloseRace(t *testing.T) {
	const clients = 8
	ep := statusEndpoint(t, clients/2)
	addr := ep.Addr().String()
	var wg sync.WaitGroup
	sent := make(chan struct{}, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialConn(addr, 2*time.Second)
			if err != nil {
				sent <- struct{}{}
				return
			}
			defer c.Close()
			for n := 0; ; n++ {
				var resp Response
				err := c.RoundTrip(Request{Op: OpStatus}, &resp)
				if n == 0 {
					sent <- struct{}{}
				}
				if err != nil {
					return
				}
			}
		}()
	}
	for i := 0; i < clients; i++ {
		<-sent
	}
	closed := make(chan struct{})
	go func() {
		var cw sync.WaitGroup
		for i := 0; i < 2; i++ {
			cw.Add(1)
			go func() { defer cw.Done(); ep.Close() }()
		}
		cw.Wait()
		wg.Wait()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close or a client wedged")
	}
}

// TestConnCloseRace: Close from one goroutine while another loops on
// RoundTrip. The loop must end with ErrClosed wherever Close lands.
func TestConnCloseRace(t *testing.T) {
	addr := statusEndpoint(t, 64).Addr().String()
	for i := 0; i < 10; i++ {
		c, err := DialConn(addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		first := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for n := 0; ; n++ {
				var resp Response
				err := c.RoundTrip(Request{Op: OpStatus}, &resp)
				if n == 0 {
					close(first)
				}
				if err != nil {
					done <- err
					return
				}
			}
		}()
		<-first
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("round trip after Close: err = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("round-trip loop survived Close")
		}
	}
}

// TestClientNoStaleResponseAfterTimeout: a call that times out leaves its
// reply in flight. The server here answers the first request 300 ms late;
// the next call must get its own answer, not that late reply.
func TestClientNoStaleResponseAfterTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lateReply := make(chan struct{})
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn, slow bool) {
				defer conn.Close()
				for {
					var req Request
					if err := ReadMessage(conn, &req); err != nil {
						return
					}
					if slow {
						time.Sleep(300 * time.Millisecond)
					}
					// Each reply names the request it answers.
					resp := Response{OK: true, Programmed: req.Op == OpProgram}
					if req.Op == OpStatus {
						resp.TotalReads = 42
					}
					err := WriteMessage(conn, resp)
					if slow {
						close(lateReply)
						slow = false
					}
					if err != nil {
						return
					}
				}
			}(conn, first)
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	if err := c.Program(ferro(4)); err == nil {
		t.Fatal("Program against a 300 ms reply beat a 100 ms timeout")
	}
	<-lateReply
	resp, err := c.Status()
	if err != nil {
		t.Fatalf("Status after timeout: %v", err)
	}
	if resp.Programmed || resp.TotalReads != 42 {
		t.Fatalf("Status returned the timed-out Program's reply: %+v", resp)
	}
}

// TestConnRedialAfterMidFrameStall is the stream-desync regression: a
// deadline firing mid-frame leaves the connection carrying a partial
// length-prefixed message, and a reused connection would decode garbage
// off it. Conn retires the connection on any I/O error and redials, so the
// call after a timeout gets a clean stream and a correct answer.
func TestConnRedialAfterMidFrameStall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Connection 1: read the request, then stall mid-frame — write a
		// header promising 64 payload bytes but deliver only 5. The
		// client's deadline fires with the partial frame on the stream.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var req Request
		if err := ReadMessage(conn, &req); err != nil {
			conn.Close()
			return
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 64)
		conn.Write(hdr[:])
		conn.Write([]byte(`{"ok"`))
		defer conn.Close()

		// Connection 2: a well-behaved server. If the client wrongly
		// reused connection 1, this accept never happens and the test
		// fails on the second call's error instead of hanging.
		conn2, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn2.Close()
		if err := ReadMessage(conn2, &req); err != nil {
			return
		}
		WriteMessage(conn2, Response{OK: true, TotalReads: 42})
	}()

	c, err := DialConn(ln.Addr().String(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var resp Response
	if err := c.RoundTrip(Request{Op: OpStatus}, &resp); err == nil {
		t.Fatal("mid-frame stall did not surface an error")
	} else if errors.Is(err, ErrClosed) {
		t.Fatalf("stall surfaced as ErrClosed: %v", err)
	}

	c.SetTimeout(5 * time.Second)
	resp = Response{}
	if err := c.RoundTrip(Request{Op: OpStatus}, &resp); err != nil {
		t.Fatalf("round trip after mid-frame stall: %v (desynced stream reused?)", err)
	}
	if !resp.OK || resp.TotalReads != 42 {
		t.Errorf("post-stall response decoded wrong: %+v", resp)
	}
	wg.Wait()
}

// TestConnServerErrorKeepsConnection: an application-level refusal
// (resp.OK == false) is a healthy protocol exchange — the connection must
// be kept rather than burn a redial per refused request.
func TestConnServerErrorKeepsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepts := make(chan struct{}, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts <- struct{}{}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					var req Request
					if err := ReadMessage(conn, &req); err != nil {
						return
					}
					resp := Response{OK: true}
					if req.Op != OpStatus {
						resp = Response{OK: false, Error: "refused"}
					}
					if err := WriteMessage(conn, resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	c, err := DialConn(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		var resp Response
		if err := c.RoundTrip(Request{Op: OpReset}, &resp); err != nil || resp.OK {
			t.Fatalf("refused request: resp %+v, err %v", resp, err)
		}
		resp = Response{}
		if err := c.RoundTrip(Request{Op: OpStatus}, &resp); err != nil || !resp.OK {
			t.Fatalf("status %d after refusal: resp %+v, err %v", i, resp, err)
		}
	}
	if got := len(accepts); got != 1 {
		t.Errorf("server saw %d connections, want 1 — refusals must not burn the conn", got)
	}
}
