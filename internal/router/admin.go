package router

import (
	"fmt"

	"github.com/splitexec/splitexec/internal/service"
)

// handleAdmin answers a wire control verb (service.WireAdmin): the remote
// face of the elastic-membership API, driven by `splitexec admin`. Every
// successful reply carries the post-verb membership epoch, so an operator
// can correlate a transition with the router's metrics and spans.
func (r *Router) handleAdmin(a service.WireAdmin) service.SolveResponse {
	reply := &service.WireAdminReply{}
	switch a.Verb {
	case service.AdminAdd:
		idx, warmed, err := r.AddShard(a.Addr)
		if err != nil {
			return service.SolveResponse{Error: err.Error()}
		}
		reply.Index = idx
		reply.Warmed = warmed
	case service.AdminDrain:
		if err := r.DrainShard(a.Shard); err != nil {
			return service.SolveResponse{Error: err.Error()}
		}
		reply.Index = a.Shard
	case service.AdminRemove:
		if err := r.RemoveShard(a.Shard); err != nil {
			return service.SolveResponse{Error: err.Error()}
		}
		reply.Index = a.Shard
	case service.AdminStatus:
		reply.Shards = r.statuses()
	default:
		return service.SolveResponse{Error: fmt.Sprintf("router: unknown admin verb %q", a.Verb)}
	}
	reply.Epoch = r.Epoch()
	return service.SolveResponse{OK: true, Admin: reply}
}

// statuses snapshots the per-shard membership table.
func (r *Router) statuses() []service.WireShardStatus {
	shards := r.snapshot()
	out := make([]service.WireShardStatus, len(shards))
	for i, sh := range shards {
		sh.mu.Lock()
		out[i] = service.WireShardStatus{
			Index:      sh.idx,
			Addr:       sh.addr,
			Up:         sh.up,
			InRing:     sh.inRing,
			Removed:    sh.removed,
			Dispatched: sh.dispatched.Load(),
			Backlog:    len(sh.queue),
		}
		sh.mu.Unlock()
	}
	return out
}
