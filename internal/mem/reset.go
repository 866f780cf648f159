package mem

// Reset support: every timing component can be returned to its freshly
// constructed state without reallocating, so a pooled simulator reuses
// one fully built hierarchy across runs (see sim.Instance). The reset
// contract is exact — a reset component must be indistinguishable from
// a new one built with the same configuration; the pooled-vs-fresh
// differential fuzz in internal/sim holds every component to it. Each
// Reset clears its storage in place and then rebuilds the component
// from what outlives a run — configuration and storage — so every other
// field, including any added later, starts each run at zero.

// Reset clears the cache's tag array, LRU clock and statistics in
// place.
func (c *Cache) Reset() {
	clear(c.lines)
	*c = Cache{cfg: c.cfg, lines: c.lines, setShift: c.setShift, setMask: c.setMask}
}

// Reset drops every in-flight fill and clears the statistics, keeping
// the entry slice's capacity.
func (m *MSHR) Reset() {
	*m = MSHR{cap: m.cap, entries: m.entries[:0]}
}

// Reset clears the TLB's entries and statistics in place. Safe on a nil
// TLB (a disabled DTLB).
func (t *TLB) Reset() {
	if t == nil {
		return
	}
	clear(t.entries)
	*t = TLB{cfg: t.cfg, entries: t.entries, mask: t.mask}
}

// Reset clears the DRAM bank timers and statistics.
func (d *DRAM) Reset() {
	clear(d.bankFree)
	*d = DRAM{cfg: d.cfg, bankFree: d.bankFree, lineBits: d.lineBits}
}

// Reset clears the prefetcher's training table and counters. Safe on a
// nil prefetcher (Prefetch != PrefetchStride).
func (p *stridePrefetcher) Reset() {
	if p == nil {
		return
	}
	clear(p.entries)
	*p = stridePrefetcher{cfg: p.cfg, entries: p.entries}
}

// Reset zeroes every mapped page in place, returning the memory to the
// all-zero image of a fresh Sparse while keeping the page map and the
// page-pointer cache warm. Sparse treats an all-zero page exactly like
// an absent one (see Equal/coveredBy), so a reset memory is functionally
// identical to NewSparse() — the next program load writes into already
// allocated pages instead of faulting them in again.
func (m *Sparse) Reset() {
	for _, p := range m.pages {
		*p = [PageSize]byte{}
	}
}

// Reset returns the hierarchy to its freshly constructed state: every
// cache, MSHR, TLB, prefetcher and DRAM model cleared in place and the
// miss-latency histograms emptied. Coherence listeners and salts are
// cleared, and the observability sink, fault injector and secret lines
// are dropped (callers reinstall per-run hooks after Reset, mirroring
// construction where none are installed yet).
func (h *Hierarchy) Reset() {
	for i := range h.cores {
		p := &h.cores[i]
		p.l1i.Reset()
		p.l1d.Reset()
		p.mshrI.Reset()
		p.mshrD.Reset()
		p.stride.Reset()
		p.dtlb.Reset()
	}
	h.l2.Reset()
	h.l2mshr.Reset()
	h.dram.Reset()
	h.latD.Reset()
	h.latI.Reset()
	clear(h.salts)
	clear(h.listeners)
	clear(h.l2BankFree)
	*h = Hierarchy{
		cfg:        h.cfg,
		cores:      h.cores,
		salts:      h.salts,
		listeners:  h.listeners,
		l2:         h.l2,
		l2mshr:     h.l2mshr,
		l2BankFree: h.l2BankFree,
		dram:       h.dram,
		latD:       h.latD,
		latI:       h.latI,
	}
}
