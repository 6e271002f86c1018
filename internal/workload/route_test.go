package workload

import (
	"fmt"
	"testing"

	"github.com/splitexec/splitexec/internal/ring"
)

// backlogs turns a slot → length map into Route's backlog view; slots
// without an entry are empty.
func backlogs(m map[int]int) func(int) int {
	return func(slot int) int { return m[slot] }
}

// TestRouteTableStealRule pins the steal rule both the DES and the router
// apply through Route.
func TestRouteTableStealRule(t *testing.T) {
	const key = "class-0"
	table := NewRouteTable([]int{0, 1, 2, 3}, 0)
	home, _ := table.Route(key, 0, -1, nil)
	if home < 0 {
		t.Fatal("no home on a four-slot table")
	}
	others := make([]int, 0, 3)
	for s := 0; s < 4; s++ {
		if s != home {
			others = append(others, s)
		}
	}

	cases := []struct {
		name    string
		steal   int
		backlog map[int]int
		want    int
	}{
		{"below threshold stays home", 3, map[int]int{home: 2}, home},
		{"home ties the shortest stays home", 2, map[int]int{home: 2, others[0]: 2, others[1]: 2, others[2]: 2}, home},
		{"home ties one other shortest stays home", 1, map[int]int{home: 1, others[0]: 1, others[1]: 5, others[2]: 5}, home},
		{"lowest index among the strictly shortest", 2, map[int]int{home: 4, others[0]: 3, others[1]: 1, others[2]: 1}, others[1]},
		{"the single strictly shortest", 2, map[int]int{home: 4, others[0]: 3, others[1]: 3, others[2]: 2}, others[2]},
		{"steal disabled never diverts", 0, map[int]int{home: 100}, home},
	}
	for _, c := range cases {
		gotHome, got := table.Route(key, c.steal, -1, backlogs(c.backlog))
		if gotHome != home {
			t.Errorf("%s: home %d, want %d", c.name, gotHome, home)
		}
		if got != c.want {
			t.Errorf("%s: target %d, want %d", c.name, got, c.want)
		}
	}
}

// TestRouteTableAvoid pins the retry rule: a target equal to avoid, the
// slot that just failed the job, moves to the shortest backlog among the
// other routable slots, the lowest slot among equals, and stays when no
// other slot is routable.
func TestRouteTableAvoid(t *testing.T) {
	const key = "class-0"
	table := NewRouteTable([]int{0, 1, 2, 3}, 0)
	home, _ := table.Route(key, 0, -1, nil)
	var others []int
	for s := 0; s < 4; s++ {
		if s != home {
			others = append(others, s)
		}
	}
	cases := []struct {
		name    string
		steal   int
		avoid   int
		backlog map[int]int
		want    int
	}{
		{"avoiding home takes the lowest of the equal others", 0, home, nil, others[0]},
		{"avoiding home takes the shortest other", 0, home, map[int]int{others[0]: 3, others[1]: 1, others[2]: 2}, others[1]},
		{"avoiding home takes the lowest of the shortest others", 0, home, map[int]int{others[0]: 3, others[1]: 1, others[2]: 1}, others[1]},
		{"avoiding another slot keeps home", 0, others[0], map[int]int{home: 9}, home},
		{"avoiding an unroutable slot keeps home", 0, 7, nil, home},
		{"avoiding the steal target takes the shortest of the rest", 2, others[2],
			map[int]int{home: 4, others[0]: 3, others[1]: 3, others[2]: 1}, others[0]},
		{"avoiding the steal target may send the job home", 2, others[2],
			map[int]int{home: 2, others[0]: 3, others[1]: 3, others[2]: 1}, home},
	}
	for _, c := range cases {
		gotHome, got := table.Route(key, c.steal, c.avoid, backlogs(c.backlog))
		if gotHome != home {
			t.Errorf("%s: home %d, want %d", c.name, gotHome, home)
		}
		if got != c.want {
			t.Errorf("%s: target %d, want %d", c.name, got, c.want)
		}
	}
	single := NewRouteTable([]int{2}, 0)
	if home, target := single.Route(key, 0, 2, backlogs(nil)); home != 2 || target != 2 {
		t.Errorf("avoiding the only routable slot routed to (%d, %d), want (2, 2)", home, target)
	}
}

// TestRouteTableSkipsUnroutable: down or absent slots are never the steal
// target, however short their backlog, and an empty table routes nowhere.
func TestRouteTableSkipsUnroutable(t *testing.T) {
	table := NewRouteTable([]int{1, 3}, 0)
	for c := 0; c < 50; c++ {
		key := ClassKey(c)
		home, target := table.Route(key, 1, -1, backlogs(map[int]int{1: 9, 3: 9}))
		if home != 1 && home != 3 {
			t.Fatalf("key %s homed on unroutable slot %d", key, home)
		}
		if target != home {
			t.Fatalf("key %s diverted to %d with only equal routable backlogs", key, target)
		}
		other := 4 - home // the other routable slot
		_, target = table.Route(key, 1, -1, backlogs(map[int]int{home: 9, other: 5}))
		if target != other {
			t.Fatalf("key %s: target %d, want the shorter routable slot %d", key, target, other)
		}
	}
	for _, empty := range []*RouteTable{NewRouteTable(nil, 0), NewRouteTable([]int{}, 16)} {
		if home, target := empty.Route("class-0", 1, 3, backlogs(nil)); home != -1 || target != -1 {
			t.Errorf("empty table routed to (%d, %d), want (-1, -1)", home, target)
		}
	}
}

// TestRouteTableOwnershipMatchesRing pins hash ownership: for every
// membership subset of four slots, the table's home for 1,000 keys is the
// owner on a ring built directly over the routable slot names — so
// routing through the table moves no hash assignment.
func TestRouteTableOwnershipMatchesRing(t *testing.T) {
	for _, replicas := range []int{0, 16} {
		for set := 1; set < 1<<4; set++ {
			var slots []int
			var names []string
			for s := 0; s < 4; s++ {
				if set&(1<<s) != 0 {
					slots = append(slots, s)
					names = append(names, ShardName(s))
				}
			}
			ref := ring.New(names, replicas)
			table := NewRouteTable(slots, replicas)
			for k := 0; k < 1000; k++ {
				key := fmt.Sprintf("key-%d", k)
				home, target := table.Route(key, 0, -1, nil)
				if want := slots[ref.Owner(key)]; home != want || target != want {
					t.Fatalf("replicas=%d slots=%v key %s: routed (%d, %d), ring owns %d", replicas, slots, key, home, target, want)
				}
			}
		}
	}
}
