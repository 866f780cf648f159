package fleet

import (
	"errors"
	"fmt"
	"testing"
)

// testKeys returns nk deterministic keys shaped like the cell cache
// keys the router hashes (kind|workload|digest).
func testKeys(nk int) []string {
	keys := make([]string, nk)
	for i := range keys {
		keys[i] = fmt.Sprintf("sst|oltp|%016x", i*2654435761)
	}
	return keys
}

// TestOwnerDeterministic: the same key on the same membership always
// lands on the same shard, across independently built rings — the
// property that lets every router agree on placement.
func TestOwnerDeterministic(t *testing.T) {
	members := []string{"a", "b", "c"}
	r1 := NewRing(0, members...)
	r2 := NewRing(0, "c", "a", "b") // different insertion order
	for _, k := range testKeys(200) {
		if o1, o2 := r1.Owners(k, 1)[0], r2.Owners(k, 1)[0]; o1 != o2 {
			t.Fatalf("key %q: owner %q vs %q on identically-membered rings", k, o1, o2)
		}
	}
}

// TestDistributionSkew: across 1k keys on 3 shards, no shard owns less
// than half or more than double its fair share. Virtual nodes are what
// keeps this bound; the test pins that 128 of them are enough.
func TestDistributionSkew(t *testing.T) {
	members := []string{"a", "b", "c"}
	r := NewRing(0, members...)
	counts := make(map[string]int)
	keys := testKeys(1000)
	for _, k := range keys {
		counts[r.Owners(k, 1)[0]]++
	}
	fair := float64(len(keys)) / float64(len(members))
	for _, m := range members {
		got := float64(counts[m])
		if got < fair/2 || got > fair*2 {
			t.Errorf("member %s owns %.0f keys, outside [%.0f, %.0f] around fair share %.0f",
				m, got, fair/2, fair*2, fair)
		}
	}
}

// TestAddMovesBoundedKeys: adding a member to an n-ring steals roughly
// K/(n+1) of the keys and never more than twice that; every moved key
// moves TO the new member, never between old ones.
func TestAddMovesBoundedKeys(t *testing.T) {
	r := NewRing(0, "a", "b", "c")
	keys := testKeys(1000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owners(k, 1)[0]
	}
	r.Add("d")
	moved := 0
	for _, k := range keys {
		after := r.Owners(k, 1)[0]
		if after != before[k] {
			moved++
			if after != "d" {
				t.Fatalf("key %q moved %q -> %q: adds must only move keys to the new member",
					k, before[k], after)
			}
		}
	}
	share := len(keys) / 4
	if moved > 2*share {
		t.Errorf("add moved %d keys, want <= %d (2x the K/N share %d)", moved, 2*share, share)
	}
	if moved == 0 {
		t.Error("add moved no keys; the new member owns nothing")
	}
}

// TestRemoveMovesOnlyOwnedKeys: removing a member re-homes exactly the
// keys it owned; every other key keeps its owner.
func TestRemoveMovesOnlyOwnedKeys(t *testing.T) {
	r := NewRing(0, "a", "b", "c")
	keys := testKeys(1000)
	before := make(map[string]string, len(keys))
	owned := 0
	for _, k := range keys {
		before[k] = r.Owners(k, 1)[0]
		if before[k] == "b" {
			owned++
		}
	}
	r.Remove("b")
	moved := 0
	for _, k := range keys {
		after := r.Owners(k, 1)[0]
		if before[k] == "b" {
			if after == "b" {
				t.Fatalf("key %q still owned by removed member", k)
			}
			moved++
			continue
		}
		if after != before[k] {
			t.Fatalf("key %q moved %q -> %q though its owner was not removed", k, before[k], after)
		}
	}
	if moved != owned {
		t.Errorf("moved %d keys, want exactly the %d the removed member owned", moved, owned)
	}
}

// TestOwnersFailoverOrder: Owners lists distinct members with the owner
// first, and removing the owner promotes the old first successor — the
// retry order a router walks when a shard dies mid-request.
func TestOwnersFailoverOrder(t *testing.T) {
	r := NewRing(0, "a", "b", "c")
	for _, k := range testKeys(50) {
		owners := r.Owners(k, 3)
		if len(owners) != 3 {
			t.Fatalf("key %q: %d owners, want 3", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %q in %v", k, o, owners)
			}
			seen[o] = true
		}
		if o := r.Owners(k, 1)[0]; owners[0] != o {
			t.Fatalf("key %q: Owners(k, 3)[0]=%q != Owners(k, 1)[0]=%q", k, owners[0], o)
		}
	}
	k := testKeys(1)[0]
	owners := r.Owners(k, 3)
	r.Remove(owners[0])
	if got := r.Owners(k, 1)[0]; got != owners[1] {
		t.Errorf("after removing owner %q, key went to %q, want first successor %q",
			owners[0], got, owners[1])
	}
}

// TestEmptyRing: no members means no owners, not a panic.
func TestEmptyRing(t *testing.T) {
	r := NewRing(0)
	if os := r.Owners("k", 3); os != nil {
		t.Errorf("empty ring owners %v, want nil", os)
	}
}

// TestMonitorEjectAndRecover: MarkDown removes a shard from the ring
// (its keys re-home), a recovering probe re-adds it (its keys return),
// and the draining distinction is recorded.
func TestMonitorEjectAndRecover(t *testing.T) {
	healthy := map[string]error{"a": nil, "b": nil, "c": nil}
	m := NewMonitor(NewRing(0), []string{"a", "b", "c"}, func(t string) error { return healthy[t] })
	if m.UpCount() != 3 {
		t.Fatalf("up count %d, want 3", m.UpCount())
	}
	k := testKeys(1)[0]
	owner := m.Ring().Owners(k, 1)[0]

	if !m.MarkDown(owner, errors.New("connection refused")) {
		t.Fatal("MarkDown returned false for an up shard")
	}
	if m.MarkDown(owner, errors.New("again")) {
		t.Fatal("MarkDown not idempotent")
	}
	if got := m.Ring().Owners(k, 1)[0]; got == owner {
		t.Fatalf("key still owned by ejected shard %q", owner)
	}
	if m.UpCount() != 2 {
		t.Fatalf("up count %d after ejection, want 2", m.UpCount())
	}

	// Probe says it recovered: it rejoins and reclaims the key.
	m.Check()
	if m.UpCount() != 3 {
		t.Fatalf("up count %d after recovery, want 3", m.UpCount())
	}
	if got := m.Ring().Owners(k, 1)[0]; got != owner {
		t.Fatalf("recovered shard did not reclaim its key: owner %q, want %q", got, owner)
	}

	// A draining shard is ejected like a dead one but marked distinctly.
	healthy[owner] = ErrDraining
	m.Check()
	for _, s := range m.Snapshot() {
		if s.Target == owner {
			if s.Up || !s.Draining {
				t.Errorf("shard %q: up=%v draining=%v, want ejected and draining", owner, s.Up, s.Draining)
			}
			if s.Ejections < 2 {
				t.Errorf("shard %q: %d ejections recorded, want >= 2", owner, s.Ejections)
			}
		}
	}
}
