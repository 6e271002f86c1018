package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/splitexec/splitexec/internal/obs"
	"github.com/splitexec/splitexec/internal/router"
)

// runRoute is the `splitexec route` subcommand: the sharded front-end tier.
// It speaks the same length-prefixed wire protocol as `splitexec serve`,
// consistent-hash routes each request to one of N backing service instances
// (by embedding-cache key for QUBO jobs, by class for profile jobs), steals
// work off backlogged shards, and health-checks the membership so a dead
// shard's traffic re-dispatches to the survivors.
func runRoute(args []string) {
	fs := flag.NewFlagSet("splitexec route", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7465", "listen address for the front end")
		shards   = fs.String("shards", "", "comma-separated backing service addresses (required)")
		clients  = fs.Int("clients", 0, "dispatch connections per shard (0 = default)")
		queue    = fs.Int("queue", 0, "per-shard queue depth (0 = default); full queues apply backpressure")
		steal    = fs.Int("steal", 0, "home backlog at which a job moves to the strictly shortest queue (0 disables stealing)")
		retries  = fs.Int("retries", 0, "re-dispatch budget per job on shard loss (0 = default)")
		backoff  = fs.Duration("backoff", 0, "base backoff between re-dispatch attempts (0 = default)")
		ping     = fs.Duration("ping", 0, "health-check interval (0 = default, negative disables)")
		pingFail = fs.Int("pingfail", 0, "consecutive ping failures before a shard is marked down (0 = default)")
		pingSucc = fs.Int("pingsucc", 0, "consecutive ping successes before a down shard is re-admitted (0 = default)")
		replicas = fs.Int("replicas", 0, "virtual nodes per shard on the hash ring (0 = default)")
		timeout  = fs.Duration("timeout", 0, "per-request shard I/O timeout (0 = none)")
		obsAddr  = fs.String("obs", "", "HTTP admin endpoint address (/metrics /healthz /jobz /varz /debug/pprof; empty = off)")
		report   = fs.Duration("report", 0, "log a JSON dispatch-ledger snapshot to stderr at this interval (0 = off)")
	)
	fs.Parse(args)

	var members []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			members = append(members, s)
		}
	}
	if len(members) == 0 {
		log.Fatalf("splitexec route: -shards requires at least one backing service address")
	}

	var scope *obs.Scope
	if *obsAddr != "" {
		scope = obs.NewScope()
	}
	rt, err := router.New(router.Options{
		Shards:          members,
		ClientsPerShard: *clients,
		QueueDepth:      *queue,
		StealThreshold:  *steal,
		MaxRetries:      *retries,
		Backoff:         *backoff,
		PingEvery:       *ping,
		PingFailLimit:   *pingFail,
		PingSuccLimit:   *pingSucc,
		Replicas:        *replicas,
		Timeout:         *timeout,
		Obs:             scope,
	})
	if err != nil {
		log.Fatalf("splitexec route: %v", err)
	}
	// /healthz on the router answers for the membership: all shards down is
	// an outage even while the process itself is alive.
	admin := startObs(*obsAddr, scope, obs.HealthCheck{Name: "shards", Check: func() error {
		for _, up := range rt.Up() {
			if up {
				return nil
			}
		}
		return fmt.Errorf("no shards up")
	}})
	bound, err := rt.Listen(*addr)
	if err != nil {
		log.Fatalf("splitexec route: %v", err)
	}
	log.Printf("splitexec: routing over %d shard(s) on %s (%s)",
		len(members), bound, strings.Join(members, ", "))

	// Route until interrupted, then drain and report the dispatch ledger.
	stopReport := startPeriodicReport(*report, "route", func() any { return rt.Stats() })
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		t := time.NewTicker(10 * time.Second)
		defer t.Stop()
		for range t.C {
			up := rt.Up()
			live := 0
			for _, ok := range up {
				if ok {
					live++
				}
			}
			if live < len(up) {
				log.Printf("splitexec route: %d/%d shards up %v", live, len(up), up)
			}
		}
	}()
	<-sig
	log.Printf("splitexec: draining router")
	stopReport()
	rt.Drain()
	if err := admin.Close(); err != nil {
		log.Printf("splitexec route: closing admin endpoint: %v", err)
	}
	out, err := json.MarshalIndent(rt.Stats(), "", "  ")
	if err != nil {
		log.Fatalf("splitexec route: encoding stats: %v", err)
	}
	fmt.Printf("%s\n", out)
}
