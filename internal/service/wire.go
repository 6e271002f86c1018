package service

import (
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/qpuserver"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/sched"
)

// The solver service speaks the same length-prefixed JSON framing as the
// QPU server, one level up the stack, through the same two halves of the
// wire: its front-end is a qpuserver.Endpoint and its Client a
// qpuserver.Conn. Where qpud serves annealing reads over a hardware Ising
// program, this front-end serves complete split-execution solves over a
// QUBO. A connection carries any number of request/response pairs;
// requests from concurrent connections interleave through the service's
// queue, and queue backpressure propagates to the submitting connection.

// MaxWireDim bounds the problem dimension a serve front-end accepts. A
// decoded QUBO allocates O(dim²) coefficients from an O(1)-byte request, so
// this cap — together with the connection cap (maxConns) — bounds
// the memory a hostile client population can commit. 1024 logical
// variables is already far beyond what any modeled QPU topology embeds.
const MaxWireDim = 1024

// MaxWireProfileTotal bounds the per-job phase budget a remote profile job
// may request. A profile job occupies a host worker for its whole duration,
// so without a cap one hostile request could park a worker for days.
const MaxWireProfileTotal = 10 * time.Minute

// WireTerm is one QUBO coefficient on the wire (I <= J; I == J is a linear
// term).
type WireTerm struct {
	I, J int
	Val  float64
}

// SolveRequest is the client→service message: a QUBO instance, or — when
// Profile is set — a synthetic profile job (the load generator's unit of
// work: the service replays the phase costs through the real dispatch
// machinery without solving anything), or — when Ping is set — a health
// probe answered immediately without touching the job queue.
type SolveRequest struct {
	Dim   int        `json:"dim,omitempty"`
	Terms []WireTerm `json:"terms,omitempty"`

	Profile *WireProfile `json:"profile,omitempty"`

	// Ping requests an immediate OK without enqueuing work — the router
	// tier's health-check probe. A saturated queue still answers pings,
	// so health reflects liveness, not backlog.
	Ping bool `json:"ping,omitempty"`

	// Admin carries a router control verb (add/remove/drain/status) instead
	// of work. Only the router tier answers these; a plain service refuses
	// the frame, so a misdirected control plane fails loudly instead of
	// mutating nothing.
	Admin *WireAdmin `json:"admin,omitempty"`

	// Scheduling attributes for profile jobs (JobClass on the wire): the
	// workload-class index, the sched.Priority rank and the sched.FairShare
	// weight. Ignored unless Profile is set.
	Class    int     `json:"class,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Weight   float64 `json:"weight,omitempty"`
}

// WireProfile is an arch.JobProfile on the wire, nanoseconds per phase.
type WireProfile struct {
	PreProcessNS  int64 `json:"preNs"`
	NetworkNS     int64 `json:"netNs,omitempty"`
	QPUServiceNS  int64 `json:"qpuNs"`
	PostProcessNS int64 `json:"postNs,omitempty"`
}

// EncodeProfile builds the wire form of a profile job.
func EncodeProfile(p arch.JobProfile) SolveRequest {
	return SolveRequest{Profile: &WireProfile{
		PreProcessNS:  int64(p.PreProcess),
		NetworkNS:     int64(p.Network),
		QPUServiceNS:  int64(p.QPUService),
		PostProcessNS: int64(p.PostProcess),
	}}
}

// DecodeProfile validates and reconstructs a wire-form profile.
func DecodeProfile(w *WireProfile) (arch.JobProfile, error) {
	p := arch.JobProfile{
		PreProcess:  time.Duration(w.PreProcessNS),
		Network:     time.Duration(w.NetworkNS),
		QPUService:  time.Duration(w.QPUServiceNS),
		PostProcess: time.Duration(w.PostProcessNS),
	}
	// Bound every phase individually before summing: a near-MaxInt64 phase
	// would overflow Total() to a negative value and slip past the cap,
	// parking a host worker for centuries on one request.
	for _, d := range []time.Duration{p.PreProcess, p.Network, p.QPUService, p.PostProcess} {
		if d < 0 {
			return p, fmt.Errorf("service: negative phase time in wire profile %+v", *w)
		}
		if d > MaxWireProfileTotal {
			return p, fmt.Errorf("service: wire profile phase %v exceeds limit %v", d, MaxWireProfileTotal)
		}
	}
	if p.Total() > MaxWireProfileTotal {
		return p, fmt.Errorf("service: wire profile total %v exceeds limit %v", p.Total(), MaxWireProfileTotal)
	}
	return p, nil
}

// SolveResponse is the service→client message.
type SolveResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	Index        int     `json:"index,omitempty"`
	Energy       float64 `json:"energy,omitempty"`
	Binary       []byte  `json:"binary,omitempty"` // 0/1 assignment
	Reads        int     `json:"reads,omitempty"`
	BrokenChains int     `json:"brokenChains,omitempty"`

	// Measured per-job service metrics, microseconds. TotalUS is the
	// server-side sojourn (Submit to completion), the open-system metric
	// the workload engine cross-validates.
	QueueWaitUS int64 `json:"queueWaitUs,omitempty"`
	QPUWaitUS   int64 `json:"qpuWaitUs,omitempty"`
	Stage1US    int64 `json:"stage1Us,omitempty"`
	Stage2US    int64 `json:"stage2Us,omitempty"`
	Stage3US    int64 `json:"stage3Us,omitempty"`
	TotalUS     int64 `json:"totalUs,omitempty"`

	// Retries counts device-death lease revocations the job survived —
	// how much of the fault regime this request absorbed server-side.
	Retries int `json:"retries,omitempty"`

	// Routing is stamped by the router tier on forwarded responses: which
	// shard served the job and how it got there. A direct (un-routed)
	// service response leaves it nil, so consumers can tell the tiers
	// apart. A pointer, not a value: shard 0 is a legitimate answer, and
	// omitempty on a struct value would erase it.
	Routing *WireRouting `json:"routing,omitempty"`

	// Admin is the router's reply to a control verb (request.Admin set).
	Admin *WireAdminReply `json:"admin,omitempty"`
}

// WireRouting is the router tier's per-job routing metadata: the shard that
// served the job, its consistent-hash home, whether the steal rule diverted
// it, and how many budget-consuming re-dispatches it survived. It rides the
// wire response so load generators and drain reports can reconcile against
// the router's /jobz spans and aggregate Stats.
type WireRouting struct {
	Shard        int  `json:"shard"`
	Home         int  `json:"home"`
	Stolen       bool `json:"stolen,omitempty"`
	Redispatches int  `json:"redispatches,omitempty"`
	// Epoch is the router's membership epoch at the job's final routing
	// decision: jobs dispatched under epoch N complete under N's routing
	// even while a later epoch's rebalance is in flight.
	Epoch int64 `json:"epoch,omitempty"`
}

// Admin verbs a router answers over the wire (WireAdmin.Verb).
const (
	AdminAdd    = "add"    // add a shard backend (Addr) to the ring
	AdminRemove = "remove" // hard-remove shard Shard: in-flight work re-dispatches
	AdminDrain  = "drain"  // gracefully drain shard Shard: in-flight work completes
	AdminStatus = "status" // report membership, epoch, per-shard ledgers
)

// WireAdmin is a router control verb on the wire: elastic membership
// (add/remove/drain) and status, driven remotely by `splitexec admin`.
type WireAdmin struct {
	Verb string `json:"verb"`
	// Addr is the backend address an "add" brings into the ring.
	Addr string `json:"addr,omitempty"`
	// Shard is the target index of "remove" and "drain".
	Shard int `json:"shard,omitempty"`
}

// WireShardStatus is one shard's row in a status reply.
type WireShardStatus struct {
	Index int    `json:"index"`
	Addr  string `json:"addr"`
	// Up is fault state (health probes, FailShard); InRing is membership
	// (joins and drains). A shard takes traffic only when both hold.
	Up      bool `json:"up"`
	InRing  bool `json:"inRing"`
	Removed bool `json:"removed,omitempty"`
	// Dispatched and Backlog are the shard's dispatch ledger and current
	// queue depth.
	Dispatched int64 `json:"dispatched"`
	Backlog    int   `json:"backlog"`
}

// WireAdminReply is the router's answer to a control verb.
type WireAdminReply struct {
	// Epoch is the membership epoch after the verb applied.
	Epoch int64 `json:"epoch"`
	// Index is the shard the verb acted on (the assigned index for "add").
	Index int `json:"index,omitempty"`
	// Warmed counts hot keys replayed into the new shard's embedding cache
	// before an "add" flipped ownership.
	Warmed int `json:"warmed,omitempty"`
	// Shards is the per-shard membership table ("status" only).
	Shards []WireShardStatus `json:"shards,omitempty"`
}

// EncodeQUBO builds the wire form of a QUBO.
func EncodeQUBO(q *qubo.QUBO) SolveRequest {
	req := SolveRequest{Dim: q.Dim()}
	for i := 0; i < q.Dim(); i++ {
		for j := i; j < q.Dim(); j++ {
			if c := q.Get(i, j); c != 0 {
				req.Terms = append(req.Terms, WireTerm{I: i, J: j, Val: c})
			}
		}
	}
	return req
}

// DecodeQUBO validates and reconstructs a wire-form QUBO.
func DecodeQUBO(req SolveRequest) (*qubo.QUBO, error) {
	if req.Dim < 1 {
		return nil, fmt.Errorf("service: dim %d < 1", req.Dim)
	}
	if req.Dim > MaxWireDim {
		return nil, fmt.Errorf("service: dim %d exceeds limit %d", req.Dim, MaxWireDim)
	}
	q := qubo.NewQUBO(req.Dim)
	for _, t := range req.Terms {
		if t.I < 0 || t.I >= req.Dim || t.J < 0 || t.J >= req.Dim {
			return nil, fmt.Errorf("service: term (%d,%d) out of range for dim %d", t.I, t.J, req.Dim)
		}
		q.Add(t.I, t.J, t.Val)
	}
	return q, nil
}

// maxConns caps the concurrent connections the TCP front-end accepts;
// connections beyond it are closed immediately. Together with MaxWireDim
// this caps the decode memory a client population can demand.
const maxConns = 32

// Listen binds addr and serves solve requests until CloseListener (or
// Drain). It returns once the listener is bound; serving continues in the
// background. Submit blocks under backpressure, so a saturated service
// slows its clients instead of buffering unboundedly.
func (s *Service) Listen(addr string) (net.Addr, error) {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	if s.ep != nil {
		return nil, errors.New("service: already listening")
	}
	ep, err := qpuserver.Serve(addr, maxConns, s.handleSolve)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	return ep.Addr(), nil
}

// CloseListener stops the TCP front-end: it closes the listener and every
// accepted connection (clients see EOF; a response in flight completes or
// fails with a write error), then waits for the connection handlers to
// finish. Jobs already queued keep running — call Drain to finish them.
func (s *Service) CloseListener() error {
	s.epMu.Lock()
	ep := s.ep
	s.ep = nil
	s.epMu.Unlock()
	return ep.Close()
}

func (s *Service) handleSolve(req SolveRequest) SolveResponse {
	if req.Admin != nil {
		return SolveResponse{Error: "service: admin verbs are answered by the router tier, not a shard"}
	}
	if req.Ping {
		return SolveResponse{OK: true}
	}
	if req.Profile != nil {
		return s.handleProfile(req)
	}
	q, err := DecodeQUBO(req)
	if err != nil {
		return SolveResponse{Error: err.Error()}
	}
	t, err := s.SubmitQUBO(q)
	if err != nil {
		return SolveResponse{Error: err.Error()}
	}
	sol, err := t.Wait()
	if err != nil {
		return SolveResponse{Error: err.Error()}
	}
	m := t.Metrics()
	resp := SolveResponse{
		OK:           true,
		Index:        m.Index,
		Energy:       sol.Energy,
		Binary:       make([]byte, len(sol.Binary)),
		Reads:        sol.Reads,
		BrokenChains: sol.BrokenChains,
		QueueWaitUS:  m.QueueWait.Microseconds(),
		QPUWaitUS:    m.QPUWait.Microseconds(),
		Stage1US:     m.Stage1.Microseconds(),
		Stage2US:     m.Stage2.Microseconds(),
		Stage3US:     m.Stage3.Microseconds(),
		TotalUS:      m.Total.Microseconds(),
	}
	for i, b := range sol.Binary {
		resp.Binary[i] = byte(b)
	}
	return resp
}

func (s *Service) handleProfile(req SolveRequest) SolveResponse {
	p, err := DecodeProfile(req.Profile)
	if err != nil {
		return SolveResponse{Error: err.Error()}
	}
	if req.Class < 0 || req.Weight < 0 || math.IsNaN(req.Weight) || math.IsInf(req.Weight, 0) ||
		req.Priority > sched.MaxPriority || req.Priority < -sched.MaxPriority {
		return SolveResponse{Error: fmt.Sprintf("service: bad wire job class (class=%d priority=%d weight=%v)",
			req.Class, req.Priority, req.Weight)}
	}
	t, err := s.SubmitProfileClass(p, JobClass{Class: req.Class, Priority: req.Priority, Weight: req.Weight})
	if err != nil {
		return SolveResponse{Error: err.Error()}
	}
	if _, err := t.Wait(); err != nil {
		return SolveResponse{Error: err.Error()}
	}
	m := t.Metrics()
	return SolveResponse{
		OK:          true,
		Index:       m.Index,
		QueueWaitUS: m.QueueWait.Microseconds(),
		QPUWaitUS:   m.QPUWait.Microseconds(),
		Stage1US:    m.Stage1.Microseconds(),
		Stage2US:    m.Stage2.Microseconds(),
		Stage3US:    m.Stage3.Microseconds(),
		TotalUS:     m.Total.Microseconds(),
		Retries:     m.Retries,
	}
}

// Client is the remote handle to a serving solver service. Its connection
// is a qpuserver.Conn: round trips serialize, Close interrupts one stuck on
// the network (it fails with qpuserver.ErrClosed), a connection that saw an
// I/O error is retired and redialed, and a server-reported error (a refused
// QUBO, an oversized profile) keeps the connection.
type Client struct {
	conn *qpuserver.Conn
}

// Dial connects to a solver service front-end.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects to a solver service front-end, bounding the dial and
// every subsequent Solve round trip by timeout (0 disables both bounds) —
// an unreachable or partitioned service then errors instead of blocking for
// the OS connect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := qpuserver.DialConn(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// SetTimeout bounds each Solve round trip (0 disables). Solves queue behind
// other clients' jobs on a saturated service, so the bound should cover the
// expected queue wait, not just the solve.
func (c *Client) SetTimeout(d time.Duration) { c.conn.SetTimeout(d) }

// Close releases the connection, interrupting a round trip in flight.
func (c *Client) Close() error { return c.conn.Close() }

// Solve submits a QUBO and blocks until the service returns the solution.
func (c *Client) Solve(q *qubo.QUBO) (SolveResponse, error) {
	return c.Do(EncodeQUBO(q))
}

// Profile submits a synthetic profile job — the load generator's unit of
// work — and blocks until the service has replayed its phase costs,
// returning the measured per-job metrics.
func (c *Client) Profile(p arch.JobProfile) (SolveResponse, error) {
	return c.Do(EncodeProfile(p))
}

// ProfileClass is Profile with explicit scheduling attributes, so a remote
// load generator can realize priority/SJF/fair-share scenarios against a
// `splitexec serve -policy` deployment.
func (c *Client) ProfileClass(p arch.JobProfile, class JobClass) (SolveResponse, error) {
	req := EncodeProfile(p)
	req.Class = class.Class
	req.Priority = class.Priority
	req.Weight = class.Weight
	return c.Do(req)
}

// Ping round-trips a health probe: an immediate OK from a live server,
// skipping the job queue entirely.
func (c *Client) Ping() error {
	_, err := c.Do(SolveRequest{Ping: true})
	return err
}

// Admin round-trips a router control verb. The reply is non-nil exactly
// when the verb applied; a plain service (or an older router) refuses the
// frame with a server error.
func (c *Client) Admin(a WireAdmin) (*WireAdminReply, error) {
	resp, err := c.Do(SolveRequest{Admin: &a})
	if err != nil {
		return nil, err
	}
	if resp.Admin == nil {
		return nil, errors.New("service: admin reply missing from response")
	}
	return resp.Admin, nil
}

// Do round-trips an arbitrary request — the router tier forwards client
// frames through this without re-encoding them. A response with OK false
// is returned alongside the server error, exactly like the typed methods.
func (c *Client) Do(req SolveRequest) (SolveResponse, error) {
	var resp SolveResponse
	if err := c.conn.RoundTrip(req, &resp); err != nil {
		return SolveResponse{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("service: server error: %s", resp.Error)
	}
	return resp, nil
}
