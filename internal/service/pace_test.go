package service

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The pacer tests check order, not timing bands: a precise sleep never
// returns before its deadline, an earlier deadline is never held behind a
// later one, and a lease revocation ends a sleep before its deadline.

// TestSleepPreciseReachesDeadline has 16 goroutines each make the same 13
// sleeps of 0–3 ms in its own shuffled order, so deadlines interleave
// across sleepers, and requires every sleep to return at or past its
// deadline.
func TestSleepPreciseReachesDeadline(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ds := make([]time.Duration, 13)
			for i := range ds {
				ds[i] = time.Duration(i) * 250 * time.Microsecond
			}
			rand.New(rand.NewSource(seed)).Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
			for _, d := range ds {
				deadline := time.Now().Add(d)
				SleepPrecise(d)
				if now := time.Now(); now.Before(deadline) {
					t.Errorf("SleepPrecise(%v) returned %v before its deadline", d, deadline.Sub(now))
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestSleepPreciseEarlierDeadlineFirst registers a 1 ms sleep while a
// 200 ms one is pending: the short sleep must return first, and before the
// long one is half over, so the pacer cannot be waiting out the long
// sleep's timer; the long one must still wake.
func TestSleepPreciseEarlierDeadlineFirst(t *testing.T) {
	long := pace.after(200 * time.Millisecond)
	// Let the pacer settle into its timer wait for the long sleep, so the
	// short sleep has to wake it; were the pacer not yet waiting, the test
	// would pass without checking that wake-up, never fail.
	time.Sleep(10 * time.Millisecond)
	start := time.Now()
	SleepPrecise(time.Millisecond)
	elapsed := time.Since(start)
	select {
	case <-long:
		t.Fatal("the 200ms sleep woke before the 1ms sleep registered after it")
	default:
	}
	if elapsed >= 100*time.Millisecond {
		t.Errorf("the 1ms sleep took %v: it waited behind the pending 200ms sleep", elapsed)
	}
	select {
	case <-long:
	case <-time.After(10 * time.Second):
		t.Fatal("the 200ms sleep never woke")
	}
}

// TestSleepLeaseRevocation: a lease closed mid-sleep ends the sleep before
// its deadline and reports revoked; a lease that stays open (or a nil one)
// sleeps to the deadline and reports held; an already-closed lease reports
// revoked even for a zero sleep.
func TestSleepLeaseRevocation(t *testing.T) {
	lease := make(chan struct{})
	go func() {
		time.Sleep(time.Millisecond)
		close(lease)
	}()
	deadline := time.Now().Add(time.Second)
	if !sleepLease(time.Second, lease) {
		t.Error("lease closed mid-sleep reported as held")
	}
	if !time.Now().Before(deadline) {
		t.Error("revocation was seen only at the 1s deadline")
	}
	if !sleepLease(0, lease) {
		t.Error("zero sleep on a closed lease reported as held")
	}

	for _, held := range []chan struct{}{make(chan struct{}), nil} {
		deadline := time.Now().Add(2 * time.Millisecond)
		if sleepLease(2*time.Millisecond, held) {
			t.Errorf("open lease (nil %t) reported as revoked", held == nil)
		}
		if now := time.Now(); now.Before(deadline) {
			t.Errorf("open lease (nil %t): sleep returned %v before its deadline", held == nil, deadline.Sub(now))
		}
	}
}
