package service

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/splitexec/splitexec/internal/qpuserver"
)

// TestClientCloseInterruptsHungServer is the regression test for the
// lifecycle-mutex bug, once per typed client built on qpuserver.Conn: with
// no timeout and a server that accepts but never answers, a round trip
// blocks forever on the read — and Close used to queue up behind it on the
// client's mutex. Close must interrupt the blocked I/O and return at once,
// and the interrupted call must surface qpuserver.ErrClosed, not a raw
// network error.
func TestClientCloseInterruptsHungServer(t *testing.T) {
	// The timeout stays 0: a call can only return if Close interrupts it.
	t.Run("service.Client", func(t *testing.T) {
		c, err := Dial(hungServer(t))
		if err != nil {
			t.Fatal(err)
		}
		checkCloseInterrupts(t, c.Ping, c.Close)
	})
	t.Run("qpuserver.Client", func(t *testing.T) {
		c, err := qpuserver.Dial(hungServer(t))
		if err != nil {
			t.Fatal(err)
		}
		checkCloseInterrupts(t, func() error { _, err := c.Status(); return err }, c.Close)
	})
}

// hungServer accepts connections and never reads or answers them.
func hungServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open until the listener closes
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func checkCloseInterrupts(t *testing.T, call, closeFn func() error) {
	t.Helper()
	callErr := make(chan error, 1)
	go func() { callErr <- call() }()
	time.Sleep(50 * time.Millisecond) // let the call get stuck in the read
	closed := make(chan error, 1)
	go func() { closed <- closeFn() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close wedged behind the in-flight round trip")
	}
	select {
	case err := <-callErr:
		if !errors.Is(err, qpuserver.ErrClosed) {
			t.Errorf("interrupted call: err = %v, want qpuserver.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call still blocked after Close")
	}
	// Close is idempotent and sticky.
	if err := closeFn(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := call(); !errors.Is(err, qpuserver.ErrClosed) {
		t.Errorf("call after Close: %v, want qpuserver.ErrClosed", err)
	}
}
