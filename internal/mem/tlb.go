package mem

// TLBConfig describes a per-core data TLB. Zero Entries disables
// translation modeling entirely (the default: all evaluation numbers
// are reported without TLB effects unless an experiment turns them on).
type TLBConfig struct {
	Entries     int // total entries
	Ways        int // associativity
	PageBits    int // log2 page size (e.g. 13 = 8 KiB pages)
	MissLatency int // table-walk latency in cycles
}

// DefaultTLBConfig returns a 64-entry, 4-way, 8KiB-page DTLB with a
// 150-cycle walk — 2009-era numbers.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Entries: 64, Ways: 4, PageBits: 13, MissLatency: 150}
}

// TLBStats counts translation events.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses/(hits+misses).
func (s TLBStats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

type tlbEntry struct {
	tag   uint64
	valid bool
	lru   uint64
}

// TLB is a set-associative translation lookaside buffer. Translation is
// identity (the simulator has no paging), so the TLB is purely a timing
// structure: a miss charges the table-walk latency. For checkpoint
// architectures this matters because a TLB miss — like a cache miss —
// is a deferral event rather than a stall.
type TLB struct {
	cfg     TLBConfig
	entries []tlbEntry // set i is entries[i*Ways : (i+1)*Ways]
	mask    uint64
	stamp   uint64
	Stats   TLBStats
}

// NewTLB builds a TLB, or returns nil for a disabled configuration.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Entries <= 0 {
		return nil
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 1
	}
	if cfg.PageBits <= 0 {
		cfg.PageBits = 13
	}
	if cfg.MissLatency <= 0 {
		cfg.MissLatency = 100
	}
	nsets := cfg.Entries / cfg.Ways
	if nsets < 1 {
		nsets = 1
	}
	// Round down to a power of two.
	for nsets&(nsets-1) != 0 {
		nsets &= nsets - 1
	}
	return &TLB{cfg: cfg, entries: make([]tlbEntry, nsets*cfg.Ways), mask: uint64(nsets - 1)}
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Translate charges translation latency for the page containing addr:
// zero on a hit, the walk latency on a miss (which also fills the
// entry).
func (t *TLB) Translate(addr uint64) (penalty uint64) {
	page := addr >> t.cfg.PageBits
	w := uint64(t.cfg.Ways)
	base := (page & t.mask) * w
	set := t.entries[base : base+w : base+w]
	tag := page >> popcount(t.mask)
	t.stamp++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = t.stamp
			t.Stats.Hits++
			return 0
		}
	}
	t.Stats.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tlbEntry{tag: tag, valid: true, lru: t.stamp}
	return uint64(t.cfg.MissLatency)
}

func popcount(v uint64) uint {
	var n uint
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}
