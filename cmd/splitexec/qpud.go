package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/splitexec/splitexec/internal/anneal"
	"github.com/splitexec/splitexec/internal/graph"
	"github.com/splitexec/splitexec/internal/qpuserver"
)

// runQpud is the `splitexec qpud` subcommand: it serves a simulated quantum
// processing unit over TCP, the "quantum server" of the paper's
// client-server deployment (Fig. 1a). Clients (any qpuserver.Client, such as
// a solver whose Config.Device dials it) program hardware Ising models and
// request annealing reads; the server enforces the Chimera topology and
// accounts modeled QPU time.
func runQpud(args []string) {
	fs := flag.NewFlagSet("splitexec qpud", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7447", "listen address")
		m        = fs.Int("m", 12, "Chimera rows M")
		ncols    = fs.Int("ncols", 12, "Chimera columns N")
		sweeps   = fs.Int("sweeps", 256, "annealer sweeps per read")
		validate = fs.Bool("validate", true, "reject programs that violate the topology")
		annealUs = fs.Float64("anneal", 20, "per-read anneal duration in µs (the device's programmed waveform length)")
		workers  = fs.Int("readworkers", 1, "concurrent readout workers per execute call (results are seed-deterministic at any count)")
		bitpar   = fs.Bool("bitparallel", false, "anneal 64 replicas per machine word (multi-spin coding); pays off at tens of reads per execute")
	)
	fs.Parse(args)

	timings := anneal.DW2Timings()
	if *annealUs > 0 {
		timings.AnnealTime = time.Duration(*annealUs * float64(time.Microsecond))
	}
	srv := qpuserver.NewServer(timings, anneal.SamplerOptions{Sweeps: *sweeps, BitParallel: *bitpar})
	srv.SetReadWorkers(*workers)
	if *validate {
		srv.Hardware = graph.Chimera{M: *m, N: *ncols, L: 4}.Graph()
		log.Printf("splitexec qpud: enforcing topology C(%d,%d,4)", *m, *ncols)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("splitexec qpud: %v", err)
	}
	log.Printf("splitexec qpud: serving simulated QPU on %s", bound)

	// Serve until interrupted, then close every client connection.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
}
