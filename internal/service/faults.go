// Fault injection for the live service: device deaths mid-lease with
// bounded-retry re-dispatch, and a wall-clock outage controller that replays
// a workload.FaultSpec's deterministic outage schedules against the fleet.
// The semantics mirror internal/des event for event — a death aborts the
// in-flight QPU service, the host keeps the job and re-acquires a device
// after the backoff, and a job whose retry budget is spent fails into the
// failure ledger — so a live storm run measures the same process the
// simulator predicts.
package service

import (
	"errors"
	"sync"
	"time"
)

// ErrLeaseRevoked is the failure a job records when every service attempt
// was aborted by a device death — its retry budget is spent.
var ErrLeaseRevoked = errors.New("service: device lease revoked, retries exhausted")

// Retry-policy defaults, mirroring the workload package's fault defaults so
// a scenario that leaves them zero behaves identically in DES and live runs
// (the service must not import workload, so the values are restated here).
const (
	defaultMaxRetries   = 3
	defaultRetryBackoff = time.Millisecond
)

// maxRetries resolves Options.MaxRetries: 0 selects the default, negative
// disables retries entirely.
func (s *Service) maxRetries() int {
	if s.opts.MaxRetries < 0 {
		return 0
	}
	if s.opts.MaxRetries == 0 {
		return defaultMaxRetries
	}
	return s.opts.MaxRetries
}

// retryBackoff resolves Options.RetryBackoff; 0 selects the default.
func (s *Service) retryBackoff() time.Duration {
	if s.opts.RetryBackoff <= 0 {
		return defaultRetryBackoff
	}
	return s.opts.RetryBackoff
}

func (s *Service) addRetry() {
	s.mu.Lock()
	s.retries++
	s.mu.Unlock()
	s.om.retries.Inc()
}

// acquire leases the next live device from the idle pool, parking any dead
// devices it pulls along the way, and returns the device together with its
// revocation channel: FailDevice closes the channel to abort the lease.
// acquire blocks while the whole fleet is down — graceful degradation is
// jobs queueing, not erroring — until RestoreDevice re-idles a device.
func (s *Service) acquire() (*fleetDevice, <-chan struct{}) {
	for {
		fd := <-s.idle
		fd.mu.Lock()
		if fd.down {
			// The device died while sitting in the idle pool; park it
			// until RestoreDevice instead of handing out a dead lease.
			fd.parked = true
			fd.mu.Unlock()
			continue
		}
		lease := make(chan struct{})
		fd.lease = lease
		fd.mu.Unlock()
		return fd, lease
	}
}

// releaseDevice ends a lease: a live device returns to the idle pool, a
// dead one parks until RestoreDevice.
func (s *Service) releaseDevice(fd *fleetDevice) {
	fd.mu.Lock()
	fd.lease = nil
	if fd.down {
		fd.parked = true
		fd.mu.Unlock()
		return
	}
	fd.mu.Unlock()
	s.idle <- fd
}

// FailDevice kills fleet device id: its current lease (if any) is revoked
// immediately, and the device hands out no further leases until
// RestoreDevice. It reports whether the device was up. Killing a device a
// job is holding aborts that job's QPU service mid-flight — the job's host
// retries on another device after the backoff, exactly the DES abort event.
func (s *Service) FailDevice(id int) bool {
	if id < 0 || id >= len(s.fleet) {
		return false
	}
	fd := s.fleet[id]
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.down {
		return false
	}
	fd.down = true
	if fd.lease != nil {
		close(fd.lease)
		fd.lease = nil
	}
	return true
}

// RestoreDevice revives fleet device id, re-idling it if it was parked. It
// reports whether the device was down.
func (s *Service) RestoreDevice(id int) bool {
	if id < 0 || id >= len(s.fleet) {
		return false
	}
	fd := s.fleet[id]
	fd.mu.Lock()
	if !fd.down {
		fd.mu.Unlock()
		return false
	}
	fd.down = false
	reidle := fd.parked
	fd.parked = false
	fd.mu.Unlock()
	if reidle {
		s.idle <- fd
	}
	return true
}

// restoreFleet revives every dead device; Drain runs it so a shut-down
// service never wedges a worker waiting on an all-dead fleet.
func (s *Service) restoreFleet() {
	for _, fd := range s.fleet {
		s.RestoreDevice(fd.id)
	}
}

// Outage is one scheduled device outage in wall-clock time relative to the
// controller's start: the device dies at At and revives after For. It is
// the service-side image of workload.Outage (the service does not import
// the workload package).
type Outage struct {
	At  time.Duration
	For time.Duration
}

// StartOutages launches the wall-clock fault controller: plans[id] is
// replayed against fleet device id, each outage killing the device at its
// offset and restoring it after its duration. The returned stop function
// halts the controller and revives every device it killed; Drain calls it
// implicitly, so the fault regime always ends before shutdown completes.
func (s *Service) StartOutages(plans [][]Outage) (stop func()) {
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for id := range plans {
		if id >= len(s.fleet) || len(plans[id]) == 0 {
			continue
		}
		wg.Add(1)
		go func(id int, plan []Outage) {
			defer wg.Done()
			for _, o := range plan {
				if !sleepUntil(start.Add(o.At), stopCh) {
					return
				}
				s.FailDevice(id)
				if !sleepUntil(start.Add(o.At+o.For), stopCh) {
					return
				}
				s.RestoreDevice(id)
			}
		}(id, plans[id])
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(stopCh)
			wg.Wait()
			s.restoreFleet()
		})
	}
	s.mu.Lock()
	s.outageStops = append(s.outageStops, stop)
	s.mu.Unlock()
	return stop
}

// stopOutages halts every registered outage controller (idempotent).
func (s *Service) stopOutages() {
	s.mu.Lock()
	stops := s.outageStops
	s.outageStops = nil
	s.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

// sleepUntil sleeps until the deadline or the stop channel closes,
// reporting false on stop.
func sleepUntil(deadline time.Time, stopCh <-chan struct{}) bool {
	d := time.Until(deadline)
	if d <= 0 {
		select {
		case <-stopCh:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stopCh:
		return false
	case <-t.C:
		return true
	}
}

// sleepLease is SleepPrecise racing a lease revocation: it sleeps for d
// unless the lease channel closes first, reporting whether the lease was
// revoked. A revocation is seen the moment the channel closes, and one that
// lands as the sleep ends still counts. A nil lease is never revoked.
func sleepLease(d time.Duration, lease <-chan struct{}) bool {
	if d > 0 {
		select {
		case <-lease:
			return true
		case <-pace.after(d):
		}
	}
	select {
	case <-lease:
		return true
	default:
		return false
	}
}
