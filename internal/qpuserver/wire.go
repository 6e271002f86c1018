package qpuserver

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Endpoint is the server side of the wire: a TCP listener that answers
// each connection's requests in order through one handler.
type Endpoint struct {
	ln       net.Listener
	maxConns int

	mu     sync.Mutex // guards conns and closed
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // the accept loop and every connection handler
}

// Serve binds addr (e.g. "127.0.0.1:0") and answers framed requests with
// handle until Close. Each reply goes out in the encoding its request
// arrived in: binary for a binary frame (when the reply has a binary form),
// JSON for JSON. It returns once the listener is bound; serving continues
// in the background. Connections beyond maxConns are closed as soon as they
// are accepted: each connection may hold a MaxMessageBytes decode in
// flight, so the cap bounds the memory a client population can commit. A
// connection whose frame fails to decode is dropped.
func Serve[Req, Resp any](addr string, maxConns int, handle func(Req) Resp) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{ln: ln, maxConns: maxConns, conns: map[net.Conn]struct{}{}}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !e.track(conn) {
				conn.Close()
				continue
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer e.untrack(conn)
				for {
					var req Req
					bin, err := readFrame(conn, &req)
					if err != nil {
						return // EOF or framing error: drop the connection
					}
					resp := handle(req)
					if err := writeFrame(conn, &resp, bin); err != nil {
						return
					}
				}
			}()
		}
	}()
	return e, nil
}

// track registers an accepted connection, refusing it over the cap or
// once Close has begun: Close may win the race after Accept returns, and
// its sweep of the connection set cannot contain this one.
func (e *Endpoint) track(conn net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || len(e.conns) >= e.maxConns {
		return false
	}
	e.conns[conn] = struct{}{}
	return true
}

func (e *Endpoint) untrack(conn net.Conn) {
	e.mu.Lock()
	delete(e.conns, conn)
	e.mu.Unlock()
	conn.Close()
}

// Addr is the bound listener address.
func (e *Endpoint) Addr() net.Addr { return e.ln.Addr() }

// Close stops the endpoint: it closes the listener and every accepted
// connection (clients see EOF; a response in flight completes or fails
// with a write error), then waits for the connection handlers to return.
// Safe to call more than once, and on a nil Endpoint.
func (e *Endpoint) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	var err error
	if !e.closed {
		e.closed = true
		err = e.ln.Close()
		for conn := range e.conns {
			conn.Close()
		}
	}
	e.mu.Unlock()
	e.wg.Wait()
	return err
}

// ErrClosed is returned by round trips on (or interrupted by) a closed
// Conn.
var ErrClosed = errors.New("qpuserver: connection closed")

// Conn is the client side of the wire: one connection carrying serialized
// request/response round trips.
//
// Lifecycle and the round-trip path are deliberately decoupled: opMu
// serializes round trips while mu guards only the connection state, so
// Close from another goroutine closes the connection out from under an
// in-flight round trip and unblocks it immediately — even with no timeout
// set against a hung or partitioned server.
//
// The length-prefixed stream is stateful: a deadline firing mid-frame (or
// any other I/O error) can leave a partially written request or partially
// read response on the wire, after which the next frame would decode
// garbage — or decode the late reply to the timed-out request as the answer
// to the next one. A Conn therefore never reuses a connection that saw an
// I/O error: the connection is torn down on the spot and the next round
// trip transparently redials. Server-reported errors arrive in complete
// frames and keep the connection.
type Conn struct {
	addr string

	// opMu serializes round trips. It is never held by Close, and the
	// network I/O under it never holds mu.
	opMu sync.Mutex

	mu      sync.Mutex // guards conn, timeout, closed
	conn    net.Conn
	timeout time.Duration
	closed  bool
}

// DialConn connects to addr, bounding the dial and every subsequent round
// trip by timeout (0 disables both bounds): an unreachable or partitioned
// server then errors instead of wedging the caller.
func DialConn(addr string, timeout time.Duration) (*Conn, error) {
	c := &Conn{addr: addr, timeout: timeout}
	if _, _, err := c.ensureConn(); err != nil {
		return nil, err
	}
	return c, nil
}

// SetTimeout bounds every subsequent round trip (write + read) by d; 0
// removes the bound.
func (c *Conn) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// RoundTrip writes req as one frame, binary when its type has a binary
// form, and decodes the reply frame into resp. Any I/O or framing error
// retires the connection; the next round trip redials.
func (c *Conn) RoundTrip(req, resp any) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	conn, timeout, err := c.ensureConn()
	if err != nil {
		return err
	}
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return c.ioError(conn, err)
		}
	}
	if err := WriteMessage(conn, req); err != nil {
		return c.ioError(conn, err)
	}
	if err := ReadMessage(conn, resp); err != nil {
		return c.ioError(conn, err)
	}
	if timeout > 0 {
		if err := conn.SetDeadline(time.Time{}); err != nil {
			// The frame completed, but the connection state is suspect;
			// retire it rather than risk a desynced reuse.
			c.ioError(conn, err)
		}
	}
	return nil
}

// ensureConn returns the live connection, dialing if there is none yet or
// the previous one was retired by an I/O error. The dial happens outside mu
// so a concurrent Close is never blocked behind an unresponsive network.
func (c *Conn) ensureConn() (net.Conn, time.Duration, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if c.conn != nil {
		conn, timeout := c.conn, c.timeout
		c.mu.Unlock()
		return conn, timeout, nil
	}
	timeout := c.timeout
	c.mu.Unlock()

	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, 0, fmt.Errorf("qpuserver: dial %s: %w", c.addr, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, 0, ErrClosed
	}
	c.conn = conn
	return conn, c.timeout, nil
}

// ioError retires a connection after an I/O failure: the stream may hold a
// partial frame, so it must never carry another request. When the failure
// was induced by a concurrent Close, the close is the real story.
func (c *Conn) ioError(conn net.Conn, err error) error {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	closed := c.closed
	c.mu.Unlock()
	conn.Close()
	if closed {
		return ErrClosed
	}
	return err
}

// Close releases the connection. A round trip blocked on the network is
// interrupted immediately (it fails with ErrClosed) — Close never waits
// behind in-flight I/O. Later round trips fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.conn = nil
	c.closed = true
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
