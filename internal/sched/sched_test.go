package sched

import (
	"testing"
	"time"
)

func drain(q Queue[int]) []int {
	var out []int
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPolicyValidation(t *testing.T) {
	if got := Policies(); len(got) != 4 || got[0] != FIFO {
		t.Errorf("Policies() = %v, want the four disciplines with FIFO first", got)
	}
	for _, p := range Policies() {
		if !Valid(p) {
			t.Errorf("Valid(%q) = false", p)
		}
	}
	if !Valid("") {
		t.Error("empty policy should normalize to FIFO and validate")
	}
	if Normalize("") != FIFO {
		t.Errorf("Normalize(\"\") = %q", Normalize(""))
	}
	if Valid("lifo") {
		t.Error("unknown policy validated")
	}
	defer func() {
		if recover() == nil {
			t.Error("New on an unknown policy did not panic")
		}
	}()
	New[int]("lifo")
}

func TestFIFOOrder(t *testing.T) {
	q := New[int](FIFO)
	for i := 0; i < 200; i++ {
		q.Push(i, Job{Priority: i % 3}) // attributes must not matter
	}
	if q.Len() != 200 {
		t.Fatalf("Len = %d", q.Len())
	}
	out := drain(q)
	for i, v := range out {
		if v != i {
			t.Fatalf("fifo out[%d] = %d", i, v)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue returned ok")
	}
}

// TestFIFOInterleaved exercises the ring compaction: heavy interleaved
// push/pop must preserve order across the copy-down.
func TestFIFOInterleaved(t *testing.T) {
	q := New[int](FIFO)
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			q.Push(next, Job{})
			next++
		}
		for i := 0; i < 35; i++ {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: got %d,%v want %d", round, v, ok, want)
			}
			want++
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	q := New[int](Priority)
	// id encodes (priority, arrival): higher priority first, FIFO within.
	q.Push(0, Job{Priority: 0})
	q.Push(1, Job{Priority: 2})
	q.Push(2, Job{Priority: 1})
	q.Push(3, Job{Priority: 2})
	q.Push(4, Job{Priority: 0})
	if got := drain(q); !equal(got, []int{1, 3, 2, 0, 4}) {
		t.Errorf("priority order = %v, want [1 3 2 0 4]", got)
	}
}

func TestShortestQPUOrder(t *testing.T) {
	q := New[int](ShortestQPU)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	q.Push(0, Job{ExpectedQPU: ms(5)})
	q.Push(1, Job{ExpectedQPU: ms(1)})
	q.Push(2, Job{ExpectedQPU: ms(5)}) // ties stay FIFO
	q.Push(3, Job{ExpectedQPU: ms(3)})
	if got := drain(q); !equal(got, []int{1, 3, 0, 2}) {
		t.Errorf("sjf order = %v, want [1 3 0 2]", got)
	}
}

// TestFairShareRatio: two classes with weights 1 and 3 and equal job cost
// must be served ~1:3 over any service window.
func TestFairShareRatio(t *testing.T) {
	q := New[int](FairShare)
	const n = 400
	cost := time.Millisecond
	for i := 0; i < n; i++ {
		q.Push(0, Job{Class: 0, Weight: 1, Cost: cost})
		q.Push(1, Job{Class: 1, Weight: 3, Cost: cost})
	}
	// Inspect the first half of the service order: class 1 should get ~3x
	// the slots of class 0.
	counts := [2]int{}
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatal("queue exhausted early")
		}
		counts[v]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("fair-share service ratio = %.2f (counts %v), want ~3", ratio, counts)
	}
}

// TestFairShareWithinClassFIFO: jobs of one class are served in arrival
// order regardless of interleaving with other classes.
func TestFairShareWithinClassFIFO(t *testing.T) {
	q := New[int](FairShare)
	for i := 0; i < 30; i++ {
		q.Push(i, Job{Class: i % 3, Weight: float64(1 + i%3), Cost: time.Millisecond})
	}
	last := map[int]int{0: -1, 1: -1, 2: -1}
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		c := v % 3
		if v <= last[c] {
			t.Fatalf("class %d served %d after %d", c, v, last[c])
		}
		last[c] = v
	}
}

// TestFairShareLateClass: a class that joins after the others have been
// served starts at the current virtual time — it gets its share from now
// on, not an unbounded catch-up burst.
func TestFairShareLateClass(t *testing.T) {
	q := New[int](FairShare)
	for i := 0; i < 10; i++ {
		q.Push(0, Job{Class: 0, Weight: 1, Cost: time.Millisecond})
	}
	for i := 0; i < 5; i++ {
		if v, _ := q.Pop(); v != 0 {
			t.Fatalf("pop %d: %d", i, v)
		}
	}
	// Class 1 arrives late with equal weight: service should now alternate,
	// not burst all of class 1 first.
	for i := 0; i < 4; i++ {
		q.Push(1, Job{Class: 1, Weight: 1, Cost: time.Millisecond})
	}
	first4 := [2]int{}
	for i := 0; i < 4; i++ {
		v, _ := q.Pop()
		first4[v]++
	}
	if first4[1] > 3 {
		t.Errorf("late class burst ahead: first 4 pops = %v", first4)
	}
}

// TestFairShareIdleClassNoDeficit: a class that was served, went idle, and
// returns later must not replay the idle period as a catch-up burst — its
// virtual clock re-syncs to the current virtual time on reactivation.
func TestFairShareIdleClassNoDeficit(t *testing.T) {
	q := New[int](FairShare)
	// Class 0 is served once, then goes idle.
	q.Push(0, Job{Class: 0, Weight: 1, Cost: time.Millisecond})
	if v, _ := q.Pop(); v != 0 {
		t.Fatal("warmup pop")
	}
	// Class 1 runs alone for a long stretch: its clock advances ~100ms.
	for i := 0; i < 100; i++ {
		q.Push(1, Job{Class: 1, Weight: 1, Cost: time.Millisecond})
	}
	for i := 0; i < 50; i++ {
		if v, _ := q.Pop(); v != 1 {
			t.Fatalf("pop %d: class %d during class-1-only stretch", i, v)
		}
	}
	// Class 0 returns with a burst while class 1 still has 50 queued: with
	// equal weights the next pops must alternate, not serve all of class 0.
	for i := 0; i < 50; i++ {
		q.Push(0, Job{Class: 0, Weight: 1, Cost: time.Millisecond})
	}
	counts := [2]int{}
	for i := 0; i < 20; i++ {
		v, _ := q.Pop()
		counts[v]++
	}
	if counts[0] > 12 || counts[1] > 12 {
		t.Errorf("reactivated class replayed its idle deficit: first 20 pops = %v, want ~10/10", counts)
	}
}

// TestPriorityExtremeValues: the ordering key saturates instead of
// overflowing, so MinInt-like priorities sort last, not first.
func TestPriorityExtremeValues(t *testing.T) {
	q := New[int](Priority)
	q.Push(0, Job{Priority: 0})
	q.Push(1, Job{Priority: int(^uint(0) >> 1)})    // MaxInt
	q.Push(2, Job{Priority: -int(^uint(0)>>1) - 1}) // MinInt
	q.Push(3, Job{Priority: MaxPriority + 1})
	if got := drain(q); !equal(got, []int{1, 3, 0, 2}) {
		t.Errorf("extreme-priority order = %v, want [1 3 0 2]", got)
	}
}

// TestDeterministicReplay: identical push sequences produce identical pop
// sequences for every policy.
func TestDeterministicReplay(t *testing.T) {
	jobs := make([]Job, 300)
	for i := range jobs {
		jobs[i] = Job{
			Class:       i % 4,
			Priority:    (i * 7) % 5,
			Weight:      float64(1 + i%3),
			ExpectedQPU: time.Duration((i*13)%9) * time.Millisecond,
			Cost:        time.Duration(1+(i*11)%7) * time.Millisecond,
		}
	}
	for _, p := range Policies() {
		runOnce := func() []int {
			q := New[int](p)
			var out []int
			for i, j := range jobs {
				q.Push(i, j)
				if i%3 == 2 {
					v, _ := q.Pop()
					out = append(out, v)
				}
			}
			out = append(out, drain(q)...)
			return out
		}
		a, b := runOnce(), runOnce()
		if !equal(a, b) {
			t.Errorf("policy %q replay diverged", p)
		}
		if len(a) != len(jobs) {
			t.Errorf("policy %q lost jobs: %d of %d", p, len(a), len(jobs))
		}
	}
}
