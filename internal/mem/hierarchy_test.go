package mem

import "testing"

func smallHier(t *testing.T, ncores int) *Hierarchy {
	t.Helper()
	cfg := HierConfig{
		L1I:     CacheConfig{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 2},
		L1D:     CacheConfig{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 4},
		L2:      CacheConfig{Name: "L2", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, HitLatency: 10, MSHRs: 8},
		L2Banks: 2,
		DRAM:    DRAMConfig{Latency: 100, Banks: 4, BankBusy: 10},
	}
	h, err := NewHierarchy(cfg, ncores)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyMissThenHit(t *testing.T) {
	h := smallHier(t, 1)
	r1 := h.Access(0, AccRead, 0x10000, 0)
	if r1.Level != LvlMem {
		t.Errorf("first access level = %v", r1.Level)
	}
	if r1.Ready < 100 {
		t.Errorf("miss ready = %d, too fast", r1.Ready)
	}
	// After the fill lands, it's an L1 hit.
	r2 := h.Access(0, AccRead, 0x10000, r1.Ready+1)
	if r2.Level != LvlL1 {
		t.Errorf("second access level = %v", r2.Level)
	}
	if r2.Ready != r1.Ready+1+2 {
		t.Errorf("hit ready = %d", r2.Ready)
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h := smallHier(t, 1)
	r1 := h.Access(0, AccRead, 0x20000, 0)
	// Same line while the fill is in flight: no second DRAM read, and
	// the data is available no earlier than the outstanding fill (the
	// in-flight line is visible in the tag array with its arrival time).
	r2 := h.Access(0, AccRead, 0x20040-0x40, 5) // same line
	if r2.Ready != r1.Ready {
		t.Errorf("merged ready %d != %d", r2.Ready, r1.Ready)
	}
	if h.DRAM().Stats.Reads != 1 {
		t.Errorf("dram reads = %d, want 1 (merged)", h.DRAM().Stats.Reads)
	}
}

func TestHierarchyL2HitPath(t *testing.T) {
	h := smallHier(t, 1)
	r1 := h.Access(0, AccRead, 0x30000, 0)
	// Evict the line from L1 by filling both ways of its set.
	// L1: 1KB/2way/64B = 8 sets; same-set stride = 512.
	h.Access(0, AccRead, 0x30000+512, r1.Ready+1)
	h.Access(0, AccRead, 0x30000+1024, r1.Ready+2)
	// The original line should now be an L2 hit, not DRAM.
	dr := h.DRAM().Stats.Reads
	r2 := h.Access(0, AccRead, 0x30000, r1.Ready+500)
	if r2.Level != LvlL2 {
		t.Errorf("level = %v, want L2", r2.Level)
	}
	if h.DRAM().Stats.Reads != dr {
		t.Error("L2 hit went to DRAM")
	}
}

func TestHierarchyWriteAllocatesDirty(t *testing.T) {
	h := smallHier(t, 1)
	r := h.Access(0, AccWrite, 0x40000, 0)
	if r.Level != LvlMem {
		t.Errorf("write miss level = %v", r.Level)
	}
	// L1 line should be dirty: evict it and expect a writeback.
	wb := h.L1D(0).Stats.Writebacks
	h.Access(0, AccRead, 0x40000+512, r.Ready+1)
	h.Access(0, AccRead, 0x40000+1024, r.Ready+2)
	if h.L1D(0).Stats.Writebacks != wb+1 {
		t.Errorf("writebacks = %d, want %d", h.L1D(0).Stats.Writebacks, wb+1)
	}
}

func TestHierarchyFetchUsesL1I(t *testing.T) {
	h := smallHier(t, 1)
	h.Access(0, AccFetch, 0x10000, 0)
	if h.L1I(0).Stats.Misses != 1 || h.L1D(0).Stats.Misses != 0 {
		t.Error("fetch did not use L1I")
	}
}

func TestHierarchyPrefetchNonBlocking(t *testing.T) {
	h := smallHier(t, 1)
	h.Access(0, AccPrefetch, 0x50000, 0)
	if h.Stats.Prefetches != 1 {
		t.Errorf("prefetches = %d", h.Stats.Prefetches)
	}
	// The line arrives later and the demand access hits.
	r := h.Access(0, AccRead, 0x50000, 300)
	if r.Level != LvlL1 {
		t.Errorf("post-prefetch level = %v", r.Level)
	}
	// Prefetches beyond MSHR capacity are dropped silently.
	for i := 0; i < 10; i++ {
		h.Access(0, AccPrefetch, uint64(0x60000+i*64), 400)
	}
	if h.Stats.Prefetches >= 11 {
		t.Errorf("prefetches = %d, expected drops when MSHRs full", h.Stats.Prefetches)
	}
}

func TestHierarchyNextLinePrefetch(t *testing.T) {
	cfg := smallHier(t, 1).Config()
	cfg.Prefetch = PrefetchNextLine
	h, err := NewHierarchy(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := h.AccessLoad(0, 0x70000, 0x10000, 0)
	if h.Stats.Prefetches != 1 {
		t.Fatalf("next-line prefetch not issued")
	}
	// The next line should be present (in flight or filled).
	r2 := h.Access(0, AccRead, 0x70040, r.Ready+200)
	if r2.Level == LvlMem && !r2.Merged {
		t.Errorf("next line went to DRAM: %+v", r2)
	}
}

func TestHierarchyCoherenceInvalidation(t *testing.T) {
	h := smallHier(t, 2)
	r := h.Access(1, AccRead, 0x80000, 0)
	if !h.L1D(1).Probe(0x80000) {
		t.Fatal("line not in core 1 L1D")
	}
	h.StoreVisible(0, 0x80000)
	if h.L1D(1).Probe(0x80000) {
		t.Error("line survived coherence invalidation")
	}
	if h.Stats.CoherenceInvals != 1 {
		t.Errorf("invals = %d", h.Stats.CoherenceInvals)
	}
	// Core 1 re-reads: must miss (L2 still has it).
	r2 := h.Access(1, AccRead, 0x80000, r.Ready+100)
	if r2.Level != LvlL2 {
		t.Errorf("post-inval level = %v", r2.Level)
	}
}

func TestHierarchyAddressSalt(t *testing.T) {
	h := smallHier(t, 2)
	h.SetAddressSalt(1, 1<<33)
	// Same virtual line from two cores must not share in L2.
	h.Access(0, AccRead, 0x90000, 0)
	r := h.Access(1, AccRead, 0x90000, 5)
	if r.Merged || r.Level != LvlMem {
		t.Errorf("salted access shared a fill: %+v", r)
	}
	if h.DRAM().Stats.Reads != 2 {
		t.Errorf("dram reads = %d, want 2", h.DRAM().Stats.Reads)
	}
}

func TestHierarchyOutstandingMisses(t *testing.T) {
	h := smallHier(t, 1)
	h.Access(0, AccRead, 0xa0000, 0)
	h.Access(0, AccRead, 0xa1000, 0)
	if n := h.OutstandingDataMisses(0, 1); n != 2 {
		t.Errorf("outstanding = %d", n)
	}
	h.Access(0, AccRead, 0xa2000, 1)
	h.Access(0, AccRead, 0xa3000, 1)
	if n := h.OutstandingDataMisses(0, 2); n != 4 {
		t.Errorf("outstanding = %d, want the MSHR file's 4", n)
	}
	if n := h.OutstandingDataMisses(0, 10000); n != 0 {
		t.Errorf("outstanding after completion = %d", n)
	}
}

func TestHierarchyValidation(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.L1D.LineBytes = 32 // mismatched line sizes
	if _, err := NewHierarchy(cfg, 1); err == nil {
		t.Error("accepted mismatched line sizes")
	}
	if _, err := NewHierarchy(DefaultHierConfig(), 0); err == nil {
		t.Error("accepted zero cores")
	}
}

func TestHierarchyL2PortContention(t *testing.T) {
	h := smallHier(t, 2)
	// Many simultaneous same-bank L2 accesses from two cores: later
	// ones must serialize (ready strictly increasing).
	var prev uint64
	for i := 0; i < 6; i++ {
		// stride of 2 lines keeps the same L2 bank (2 banks).
		r := h.Access(i%2, AccRead, uint64(0xb0000+i*128), 0)
		if r.Ready <= prev && i > 0 {
			t.Errorf("access %d ready %d not after %d", i, r.Ready, prev)
		}
		prev = r.Ready
	}
}
