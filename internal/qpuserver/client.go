package qpuserver

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/qubo"
)

// Client is the host-side handle to a remote QPU. It mirrors the
// anneal.Device API (Program/Execute/QPUTime) so the split-execution
// pipeline can run against a networked processor, and additionally tracks
// the network round-trip time of every call so the interface cost the paper
// leaves unmodeled becomes measurable.
//
// Client is safe for concurrent use; calls serialize on the connection. Its
// connection is a Conn: Close interrupts a call stuck on the network, and a
// call that fails on I/O (a timeout included) retires the connection, so
// the next call redials instead of reading a stale reply.
type Client struct {
	conn *Conn

	mu         sync.Mutex // serializes calls; never held by Close
	programmed bool
	dim        int

	netTime   time.Duration // cumulative round-trip wall time
	lastState Response      // most recent server accounting
}

// Dial connects to a QPU server.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects to a QPU server, bounding the dial and every
// subsequent round trip by timeout (0 disables both bounds). A hung or
// partitioned server then surfaces as a deadline error instead of wedging
// the caller forever — the failure mode a dispatch-service worker cannot
// afford.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := DialConn(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// SetTimeout bounds every subsequent round trip (write + read) by d; 0
// removes the bound.
func (c *Client) SetTimeout(d time.Duration) { c.conn.SetTimeout(d) }

// Close releases the connection, interrupting a call in flight.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends req and decodes the response, timing the exchange.
func (c *Client) roundTrip(req Request) (Response, error) {
	start := time.Now()
	var resp Response
	if err := c.conn.RoundTrip(req, &resp); err != nil {
		return Response{}, err
	}
	c.netTime += time.Since(start)
	if !resp.OK {
		return resp, fmt.Errorf("qpuserver: server error: %s", resp.Error)
	}
	c.lastState = resp
	return resp, nil
}

// Program uploads a hardware Ising model to the remote device.
func (c *Client) Program(m *qubo.Ising) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.roundTrip(ProgramRequest(m)); err != nil {
		return err
	}
	c.programmed = true
	c.dim = m.Dim()
	return nil
}

// Programmed reports whether a program has been uploaded on this client.
func (c *Client) Programmed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.programmed
}

// Execute performs reads annealing repetitions remotely. The rng draws the
// seed forwarded to the server, preserving end-to-end determinism.
func (c *Client) Execute(reads int, rng *rand.Rand) (*anneal.SampleSet, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.programmed {
		return nil, fmt.Errorf("qpuserver: Execute before Program")
	}
	resp, err := c.roundTrip(Request{Op: OpExecute, Reads: reads, Seed: rng.Int63()})
	if err != nil {
		return nil, err
	}
	set := anneal.NewSampleSet(c.dim)
	for _, smp := range resp.Samples {
		spins := UnpackSpins(smp.Spins)
		if len(spins) != c.dim {
			return nil, fmt.Errorf("qpuserver: sample length %d != dim %d", len(spins), c.dim)
		}
		set.Add(spins, smp.Energy)
	}
	return set, nil
}

// QPUTime returns the server's modeled programming and execution time.
func (c *Client) QPUTime() (programming, execution time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.lastState.ProgramTimeUS) * time.Microsecond,
		time.Duration(c.lastState.ExecuteTimeUS) * time.Microsecond
}

// NetworkTime returns the cumulative wall-clock round-trip time of all
// calls — the measured quantum-classical interface cost.
func (c *Client) NetworkTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.netTime
}

// Status queries the server's device state.
func (c *Client) Status() (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrip(Request{Op: OpStatus})
}

// Reset clears the remote device.
func (c *Client) Reset() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.roundTrip(Request{Op: OpReset}); err != nil {
		return err
	}
	c.programmed = false
	c.dim = 0
	return nil
}
