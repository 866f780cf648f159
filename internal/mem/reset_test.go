package mem

import (
	"testing"

	"rocksim/internal/resetcheck"
)

// TestHierarchyResetMatchesFresh leaves misses, prefetches and
// translations in flight on both cores of a hierarchy with every
// optional part enabled, then resets it: it must hold exactly the state
// of a fresh one.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	cfg := smallHier(t, 1).Config()
	cfg.Prefetch = PrefetchStride
	cfg.DTLB = DefaultTLBConfig()
	build := func() *Hierarchy {
		h, err := NewHierarchy(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	used := build()
	used.SetAddressSalt(1, 1<<33)
	used.SetInvalListener(0, func(uint64) {})
	used.SetSecret(0x40000, 64)
	for i := uint64(0); i < 8; i++ {
		for core := 0; core < 2; core++ {
			used.AccessLoad(core, 0x10000+i*256, 0x1000, i)
			used.Access(core, AccWrite, 0x50000+i*64, i)
			used.Access(core, AccFetch, 0x1000+i*64, i)
		}
	}
	used.StoreVisible(1, 0x50000)
	if used.OutstandingDataMisses(0, 8) == 0 {
		t.Fatal("no misses in flight")
	}
	used.Reset()
	if d := resetcheck.Diff(build(), used); d != "" {
		t.Errorf("reset hierarchy differs from fresh at %s", d)
	}
}
