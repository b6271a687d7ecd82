package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/reprolab/hirise/internal/store"
)

func testKey(i int) store.Key {
	return sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
}

func TestRingValidation(t *testing.T) {
	for _, ids := range [][]string{nil, {}, {"a", ""}, {"a", "b", "a"}} {
		if _, err := NewRing(ids); err == nil {
			t.Errorf("NewRing(%q) succeeded, want error", ids)
		}
	}
}

// TestRingOrderIndependent: the ring is a pure function of the
// membership set — every node builds the identical ring no matter how
// its config file orders the peers.
func TestRingOrderIndependent(t *testing.T) {
	a, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		k := testKey(i)
		if a.Home(k) != b.Home(k) {
			t.Fatalf("key %d: home %q vs %q under reordered membership", i, a.Home(k), b.Home(k))
		}
		ao, bo := a.Order(k), b.Order(k)
		if fmt.Sprint(ao) != fmt.Sprint(bo) {
			t.Fatalf("key %d: order %v vs %v under reordered membership", i, ao, bo)
		}
	}
}

// TestRingBalance: with the ring's virtual-node count, no peer of a
// 3-node ring owns a grossly outsized key share.
func TestRingBalance(t *testing.T) {
	r, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 9000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Home(testKey(i))]++
	}
	for id, n := range counts {
		if share := float64(n) / keys; share < 0.20 || share > 0.47 {
			t.Errorf("peer %s owns %.1f%% of keys, want roughly a third", id, 100*share)
		}
	}
}

// TestRingMinimalRemap: removing one peer only remaps the keys that
// peer owned; every other key keeps its home. This is the property that
// makes a node restart cheap — the survivors' caches stay valid.
func TestRingMinimalRemap(t *testing.T) {
	full, err := NewRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing([]string{"n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		k := testKey(i)
		if home := full.Home(k); home != "n3" && reduced.Home(k) != home {
			t.Fatalf("key %d moved %s -> %s though its home survived", i, home, reduced.Home(k))
		}
	}
}

// TestRingOrder: the preference order starts at the key's home and
// visits every peer exactly once.
func TestRingOrder(t *testing.T) {
	ids := []string{"n1", "n2", "n3", "n4"}
	r, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := testKey(i)
		order := r.Order(k)
		if len(order) != len(ids) {
			t.Fatalf("key %d: order %v misses peers", i, order)
		}
		if order[0] != r.Home(k) {
			t.Fatalf("key %d: order %v does not start at home %s", i, order, r.Home(k))
		}
		seen := map[string]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("key %d: order %v repeats %s", i, order, id)
			}
			seen[id] = true
		}
	}
}
