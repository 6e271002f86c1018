package benchio

import (
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/arch"
	"github.com/splitexec/splitexec/internal/qubo"
	"github.com/splitexec/splitexec/internal/router"
	"github.com/splitexec/splitexec/internal/service"
)

// The router dispatch benchmarks live beside the kernel suite so the CI
// bench smoke (`-bench . -benchtime 1x`) keeps the federation's hot path —
// shard-key extraction and the full router→shard wire round trip —
// compiling, running and visibly allocation-bounded.

// benchFederation stands up n loopback shard services behind a router with
// the given steal threshold and returns the router plus a teardown closure.
func benchFederation(b *testing.B, n, steal int) (*router.Router, func()) {
	b.Helper()
	addrs := make([]string, n)
	svcs := make([]*service.Service, n)
	for i := range addrs {
		svc, err := service.New(service.Options{Workers: 2, Fleet: 2, QueueDepth: 256})
		if err != nil {
			b.Fatal(err)
		}
		addr, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		svcs[i] = svc
		addrs[i] = addr.String()
	}
	rt, err := router.New(router.Options{Shards: addrs, StealThreshold: steal, PingEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	return rt, func() {
		rt.Drain()
		for _, svc := range svcs {
			svc.CloseListener()
			svc.Drain()
		}
	}
}

func benchProfileReq(class int) service.SolveRequest {
	req := service.EncodeProfile(arch.JobProfile{
		PreProcess:  20 * time.Microsecond,
		QPUService:  20 * time.Microsecond,
		PostProcess: 10 * time.Microsecond,
	})
	req.Class = class
	return req
}

// BenchmarkRouterShardKey measures key extraction alone — the per-request
// routing cost before any I/O: a map-free class key for profile jobs, a
// QUBO decode plus canonical structure hash for solver jobs.
func BenchmarkRouterShardKey(b *testing.B) {
	b.Run("profile", func(b *testing.B) {
		req := benchProfileReq(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := router.ShardKey(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("qubo", func(b *testing.B) {
		q := qubo.NewQUBO(8)
		for i := 0; i < 8; i++ {
			q.Set(i, (i+1)%8, 1)
			q.Set(i, i, -1)
		}
		req := service.EncodeQUBO(q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := router.ShardKey(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouterDispatch measures one complete dispatch through the
// fabric: key → ring owner → shard queue → pooled wire client → service
// round trip, over three loopback shards.
func BenchmarkRouterDispatch(b *testing.B) {
	rt, stop := benchFederation(b, 3, 0)
	defer stop()
	req := benchProfileReq(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := rt.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.OK {
			b.Fatalf("refused: %s", resp.Error)
		}
	}
}

// BenchmarkRouterDispatchConcurrent drives the same path from parallel
// submitters across all three classes with a steal threshold of 2, so queue
// contention and work stealing are in the measured loop rather than idle.
func BenchmarkRouterDispatchConcurrent(b *testing.B) {
	rt, stop := benchFederation(b, 3, 2)
	defer stop()
	reqs := []service.SolveRequest{benchProfileReq(0), benchProfileReq(1), benchProfileReq(2)}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := rt.Submit(reqs[i%len(reqs)])
			if err != nil {
				b.Error(err)
				return
			}
			if !resp.OK {
				b.Errorf("refused: %s", resp.Error)
				return
			}
			i++
		}
	})
}
