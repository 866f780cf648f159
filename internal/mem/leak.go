package mem

// Transient-leakage support: secret-region tracking, taint counters and
// the observable-state digest consumed by sim.CheckTransientLeakage.
//
// The oracle's threat model (docs/SECURITY.md) is an attacker who can
// measure cache timing after a speculation squash. "Observable state" is
// therefore exactly what survives a rollback and changes future timing:
// cache tag arrays (valid/dirty bits, in-flight fill arrival, and the
// LRU ordering within each set) plus MSHR residue. Pure statistics,
// functional memory contents and the injected-fault schedule are not
// attacker-observable and stay out of the digest.

// fnv64 folds a stream of uint64 values with FNV-1a.
type fnv64 struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newFnv64() fnv64 { return fnv64{h: fnvOffset} }

func (d *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= uint64(byte(v >> (8 * i)))
		d.h *= fnvPrime
	}
}

func (d *fnv64) boolBit(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

// digestInto folds the cache's observable state: for every set, each
// valid line's tag, dirty bit, fill-arrival cycle, and its LRU *rank*
// within the set. Ranks — not raw stamps — because only the replacement
// order is observable: two histories that touch lines at different
// absolute stamps but leave the same eviction order are
// indistinguishable to an attacker.
func (c *Cache) digestInto(d *fnv64) {
	nsets := len(c.lines) / c.cfg.Ways
	d.u64(uint64(nsets))
	for si := 0; si < nsets; si++ {
		set := c.setAt(si)
		for i := range set {
			l := &set[i]
			if !l.valid {
				continue
			}
			// rank = number of valid lines in this set touched less
			// recently (stamps are unique: the stamp counter is bumped on
			// every touch).
			rank := 0
			for j := range set {
				if j != i && set[j].valid && set[j].lru < l.lru {
					rank++
				}
			}
			d.u64(uint64(si))
			d.u64(l.tag)
			d.boolBit(l.dirty)
			d.u64(l.fillReady)
			d.u64(uint64(rank))
		}
	}
}

// digestInto folds the MSHR's live residue at cycle now: which line
// fills are still in flight and when each arrives.
func (m *MSHR) digestInto(d *fnv64, now uint64) {
	m.expire(now)
	for _, e := range m.entries {
		d.u64(e.line)
		d.u64(e.ready)
	}
}

// ObservableDigest summarizes, at cycle now, every microarchitectural
// structure an attacker can observe through post-squash cache timing:
// all L1I/L1D/L2 tag+LRU state and all MSHR residue. The leakage oracle
// compares digests across secret-differing runs; any difference after a
// rollback means speculation exfiltrated a secret. TLB, DRAM bank and
// prefetcher-training state are deliberately excluded (see
// docs/SECURITY.md for the scoping argument).
func (h *Hierarchy) ObservableDigest(now uint64) uint64 {
	d := newFnv64()
	for i := range h.cores {
		p := &h.cores[i]
		p.l1i.digestInto(&d)
		p.l1d.digestInto(&d)
		p.mshrI.digestInto(&d, now)
		p.mshrD.digestInto(&d, now)
	}
	h.l2.digestInto(&d)
	h.l2mshr.digestInto(&d, now)
	return d.h
}

// SetSecret marks the byte range [addr, addr+n) as secret: speculative
// accesses to its lines count as tainted, and cores begin logging
// speculative fills for squash accounting. Addresses are in the
// program's (pre-salt) domain.
func (h *Hierarchy) SetSecret(addr uint64, n int) {
	if n <= 0 {
		return
	}
	if h.secretLines == nil {
		h.secretLines = make(map[uint64]struct{})
	}
	lb := uint64(h.cfg.L2.LineBytes)
	first := addr &^ (lb - 1)
	last := (addr + uint64(n) - 1) &^ (lb - 1)
	for line := first; ; line += lb {
		h.secretLines[line] = struct{}{}
		if line == last {
			break
		}
	}
}

// SecretsInstalled reports whether any secret region is marked. Cores
// gate their (slightly more expensive) taint bookkeeping on it.
func (h *Hierarchy) SecretsInstalled() bool { return len(h.secretLines) > 0 }

// NoteSpecAccess records a speculative data access by a core; it counts
// as tainted when the address falls in a secret line. Addresses are in
// the program's (pre-salt) domain, as passed to Access.
func (h *Hierarchy) NoteSpecAccess(addr uint64) {
	if h.secretLines == nil {
		return
	}
	if _, ok := h.secretLines[h.l2.LineAddr(addr)]; ok {
		h.Stats.TaintedSpecAccesses++
	}
}

// NoteSquashedSpecFills records n speculative fills discarded by a
// rollback while secrets were installed — the residue the oracle's
// post-squash digest check inspects.
func (h *Hierarchy) NoteSquashedSpecFills(n int) {
	h.Stats.SquashedSpecFills += uint64(n)
}

// SpecProbeLoad probes core's L1D (and its MSHR file, for merges with
// already-in-flight fills) for addr at cycle now with no observable side
// effects: no LRU touch, no fill, no MSHR allocation, no prefetcher
// training. SecureDelayOnMiss uses it for speculative loads: a hit (or
// merge) may complete, a miss must not start a fill. Hit/miss statistics
// are still counted — they are not attacker-observable.
func (h *Hierarchy) SpecProbeLoad(core int, addr uint64, now uint64) (ready uint64, hit bool) {
	p := &h.cores[core]
	addr ^= h.salts[core]
	line := p.l1d.LineAddr(addr)
	if ready, hit := p.l1d.ProbeAt(line, now); hit {
		return ready, true
	}
	if ready, inflight := p.mshrD.Lookup(line, now); inflight {
		return ready, true
	}
	return 0, false
}
