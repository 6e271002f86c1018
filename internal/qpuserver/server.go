package qpuserver

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/graph"
)

// Server exposes one simulated QPU over TCP. Like the real device, the
// server is a serially shared resource: concurrent connections are
// accepted, but programming and execution serialize on the device mutex
// (the contention behaviour of the shared-resource architecture, Fig. 1b).
type Server struct {
	Timings anneal.Timings
	Opts    anneal.SamplerOptions
	// Hardware, when non-nil, rejects programs whose couplings are not
	// couplers of this graph.
	Hardware *graph.Graph
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...interface{})

	mu     sync.Mutex
	device *anneal.Device

	lnMu sync.Mutex
	ln   net.Listener
	wg   sync.WaitGroup
}

// NewServer builds a server around a fresh device.
func NewServer(t anneal.Timings, opts anneal.SamplerOptions) *Server {
	return &Server{Timings: t, Opts: opts, device: anneal.NewDevice(t, opts)}
}

// SetReadWorkers bounds the device's concurrent readout workers (<= 1 runs
// reads serially). Execution results for a given request seed are identical
// at every worker count; only the server's wall-clock latency changes.
func (s *Server) SetReadWorkers(n int) {
	s.mu.Lock()
	s.device.Workers = n
	s.mu.Unlock()
}

// SetBitParallel switches the device's annealing kernel between the scalar
// reference path and the multi-spin-coded word kernel (64 replicas per
// uint64 word; see anneal.SamplerOptions.BitParallel). Takes effect on the
// next program request; results for a given request seed are identical
// either way, only the modeled device's throughput changes.
func (s *Server) SetBitParallel(on bool) {
	s.mu.Lock()
	s.Opts.BitParallel = on
	s.device.Opts.BitParallel = on
	s.mu.Unlock()
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves until Close. It returns
// once the listener is bound; serving continues in the background.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Addr returns the bound listener address, or nil when not listening.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.lnMu.Lock()
	ln := s.ln
	s.ln = nil
	s.lnMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.logf("qpuserver: accept: %v", err)
			}
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		var req Request
		if err := ReadMessage(conn, &req); err != nil {
			return // EOF or protocol error: drop the connection
		}
		resp := s.handle(req)
		if err := WriteMessage(conn, &resp); err != nil {
			s.logf("qpuserver: write: %v", err)
			return
		}
	}
}

// handle executes one request against the shared device.
func (s *Server) handle(req Request) Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case OpProgram:
		m, err := DecodeProgram(req)
		if err != nil {
			return errResponse(err)
		}
		if err := validateProgramGraph(m, s.Hardware); err != nil {
			return errResponse(err)
		}
		s.device.Program(m)
		return s.statusLocked()
	case OpExecute:
		if req.Reads < 1 {
			return errResponse(fmt.Errorf("qpuserver: reads = %d", req.Reads))
		}
		rng := rand.New(rand.NewSource(req.Seed))
		set, err := s.device.Execute(req.Reads, rng)
		if err != nil {
			return errResponse(err)
		}
		resp := s.statusLocked()
		resp.ReadsRun = set.Len()
		resp.Samples = make([]SampleWire, 0, set.Len())
		for _, smp := range set.Samples {
			resp.Samples = append(resp.Samples, SampleWire{
				Spins:  PackSpins(smp.Spins),
				Energy: smp.Energy,
			})
		}
		return resp
	case OpStatus:
		return s.statusLocked()
	case OpReset:
		s.device.Reset()
		return s.statusLocked()
	}
	return errResponse(fmt.Errorf("qpuserver: unknown op %q", req.Op))
}

func (s *Server) statusLocked() Response {
	prog, exec := s.device.QPUTime()
	return Response{
		OK:            true,
		Programmed:    s.device.Programmed(),
		ProgramTimeUS: prog.Microseconds(),
		ExecuteTimeUS: exec.Microseconds(),
		TotalReads:    s.device.TotalReads(),
	}
}

func errResponse(err error) Response { return Response{OK: false, Error: err.Error()} }

// ListenAndLog is a convenience for `splitexec qpud`: bind, announce, serve
// forever.
func (s *Server) ListenAndLog(addr string) error {
	a, err := s.Listen(addr)
	if err != nil {
		return err
	}
	log.Printf("splitexec qpud: serving simulated QPU on %s", a)
	s.wg.Wait()
	return nil
}
