package router

import (
	"strconv"

	"github.com/splitexec/splitexec/internal/obs"
)

// initObs registers the router's telemetry against the configured scope.
// Every series samples a ledger the router already maintains (the Stats
// atomics, queue lengths, ring membership) at scrape time, so dispatch hot
// paths pay nothing and /metrics can never disagree with Stats().
func (r *Router) initObs() {
	reg := r.opts.Obs.Registry()
	if reg == nil {
		return
	}
	reg.CounterFunc("splitexec_router_steals_total",
		func() float64 { return float64(r.stolen.Load()) })
	reg.CounterFunc("splitexec_router_redispatch_total",
		func() float64 { return float64(r.redispatched.Load()) })
	reg.CounterFunc("splitexec_router_requeue_total",
		func() float64 { return float64(r.requeued.Load()) })
	reg.CounterFunc("splitexec_router_failed_total",
		func() float64 { return float64(r.failedJobs.Load()) })
	reg.CounterFunc("splitexec_router_evictions_total",
		func() float64 { return float64(r.evicted.Load()) })
	reg.GaugeFunc("splitexec_router_epoch",
		func() float64 { return float64(r.Epoch()) })
	reg.CounterFunc("splitexec_router_keys_moved_total",
		func() float64 { return float64(r.keysMoved.Load()) })
	reg.CounterFunc("splitexec_router_warmed_total",
		func() float64 { return float64(r.warmed.Load()) })
	for _, sh := range r.snapshot() {
		r.registerShardObs(sh)
	}
}

// registerShardObs publishes one shard's series; AddShard calls it for
// shards provisioned after boot, so elastic members appear in /metrics the
// moment they exist.
func (r *Router) registerShardObs(sh *shard) {
	reg := r.opts.Obs.Registry()
	if reg == nil {
		return
	}
	lbl := strconv.Itoa(sh.idx)
	reg.CounterFunc(obs.Label("splitexec_router_dispatched_total", "shard", lbl),
		func() float64 { return float64(sh.dispatched.Load()) })
	reg.GaugeFunc(obs.Label("splitexec_router_backlog", "shard", lbl),
		func() float64 { return float64(len(sh.queue)) })
	reg.GaugeFunc(obs.Label("splitexec_router_shard_up", "shard", lbl),
		func() float64 {
			if sh.isUp() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc(obs.Label("splitexec_router_shard_in_ring", "shard", lbl),
		func() float64 {
			if sh.isInRing() {
				return 1
			}
			return 0
		})
}
