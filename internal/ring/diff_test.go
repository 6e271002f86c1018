package ring

import (
	"fmt"
	"testing"
)

// TestJoinKeyMovementProperty pins the bounded-movement claim exactly: on
// join of an (N+1)th member, the moved-key fraction over 10k sampled keys
// is ≈1/(N+1), every unmoved key resolves to its previous owner, every
// moved key lands on the joiner, and Moved(old, new) predicts precisely the
// moved set — no more, no less.
func TestJoinKeyMovementProperty(t *testing.T) {
	const keys = 10_000
	for _, n := range []int{2, 4, 7} {
		n := n
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			old := New(members(n), 0)
			joiner := fmt.Sprintf("shard-%d", n)
			grown := old.With(joiner)
			if grown.Len() != n+1 {
				t.Fatalf("With: %d members, want %d", grown.Len(), n+1)
			}
			ranges := Moved(old, grown)
			if len(ranges) == 0 {
				t.Fatal("Moved returned no ranges for a join")
			}
			for _, g := range ranges {
				if g.To != joiner {
					t.Fatalf("range (%d, %d] moves %s→%s; a join may only move keys to the joiner",
						g.Lo, g.Hi, g.From, g.To)
				}
			}
			moved := 0
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("key-%d", i)
				before, after := old.Lookup(key), grown.Lookup(key)
				inDiff := Covers(ranges, Hash(key))
				switch {
				case before == after:
					if inDiff {
						t.Fatalf("key %q kept owner %s but Moved covers it", key, before)
					}
				case after == joiner:
					moved++
					if !inDiff {
						t.Fatalf("key %q moved %s→%s outside the Moved ranges", key, before, after)
					}
				default:
					t.Fatalf("key %q moved between survivors: %s→%s", key, before, after)
				}
			}
			// The joiner takes ≈1/(N+1) of the key space; 64 virtual nodes
			// leave some variance, so accept [0.7, 1.3]× the fair share.
			fair := 1.0 / float64(n+1)
			frac := float64(moved) / keys
			if frac < 0.7*fair || frac > 1.3*fair {
				t.Errorf("join of member %d moved %.3f of keys, fair share %.3f", n+1, frac, fair)
			}
			// The hash-space fraction the diff claims should agree with the
			// sampled movement to the same tolerance.
			if f := Frac(ranges); f < 0.7*fair || f > 1.3*fair {
				t.Errorf("Frac(ranges) = %.3f, fair share %.3f", f, fair)
			}
		})
	}
}

// TestMovedDrainInverse checks the drain direction: the diff of an N-ring
// against its (N-1)-member remainder moves exactly the drained member's
// keys, each to a survivor.
func TestMovedDrainInverse(t *testing.T) {
	const n, drained, keys = 5, 2, 10_000
	full := New(members(n), 0)
	rest := full.Without(drained)
	ranges := Moved(full, rest)
	name := fmt.Sprintf("shard-%d", drained)
	for _, g := range ranges {
		if g.From != name {
			t.Fatalf("range moves %s→%s; a drain may only move the drained member's keys", g.From, g.To)
		}
		if g.To == name {
			t.Fatalf("range moves keys to the drained member %s", name)
		}
	}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		movedKey := full.Lookup(key) == name
		if got := Covers(ranges, Hash(key)); got != movedKey {
			t.Fatalf("key %q: Covers=%v but moved=%v", key, got, movedKey)
		}
		if !movedKey && full.Lookup(key) != rest.Lookup(key) {
			t.Fatalf("key %q changed owner without being drained", key)
		}
	}
}

// TestMovedIdentical: no membership change, no movement.
func TestMovedIdentical(t *testing.T) {
	a, b := New(members(4), 0), New(members(4), 0)
	if got := Moved(a, b); len(got) != 0 {
		t.Fatalf("identical rings moved %d ranges", len(got))
	}
}

// TestMovedEmpty: a diff against an empty ring is meaningless and nil.
func TestMovedEmpty(t *testing.T) {
	full := New(members(3), 0)
	empty := New(nil, 0)
	if Moved(full, empty) != nil || Moved(empty, full) != nil || Moved(nil, full) != nil {
		t.Fatal("diff against an empty ring should be nil")
	}
}

// TestRangeContainsWrap exercises the wrap-through-zero arc.
func TestRangeContainsWrap(t *testing.T) {
	g := Range{Lo: ^uint64(0) - 10, Hi: 10}
	for _, h := range []uint64{^uint64(0) - 5, ^uint64(0), 0, 1, 10} {
		if !g.Contains(h) {
			t.Errorf("wrap range should contain %d", h)
		}
	}
	for _, h := range []uint64{11, 1 << 40, ^uint64(0) - 10} {
		if g.Contains(h) {
			t.Errorf("wrap range should not contain %d", h)
		}
	}
}
