package mem

import (
	"fmt"

	"rocksim/internal/faults"
	"rocksim/internal/obs"
	"rocksim/internal/stats"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

// Hierarchy levels.
const (
	LvlL1 Level = iota
	LvlL2
	LvlMem
)

func (l Level) String() string {
	switch l {
	case LvlL1:
		return "L1"
	case LvlL2:
		return "L2"
	case LvlMem:
		return "Mem"
	}
	return "?"
}

// AccessKind distinguishes the flavours of hierarchy access.
type AccessKind uint8

// Access kinds.
const (
	AccRead     AccessKind = iota // data load
	AccWrite                      // data store (write-allocate)
	AccFetch                      // instruction fetch
	AccPrefetch                   // non-binding prefetch
)

// Result reports the outcome of a timed access.
type Result struct {
	// Ready is the cycle at which the data is available (for stores,
	// the cycle the store can complete into the cache).
	Ready uint64
	// Level is where the access was satisfied.
	Level Level
	// Merged reports that the access piggybacked on an in-flight
	// MSHR fill rather than issuing new traffic.
	Merged bool
}

// HierConfig configures the full memory hierarchy: per-core L1I/L1D,
// a shared banked L2, and DRAM.
type HierConfig struct {
	L1I     CacheConfig
	L1D     CacheConfig
	L2      CacheConfig
	L2Banks int // independent L2 ports; 1 access/cycle/bank throughput
	DRAM    DRAMConfig
	// Prefetch selects the per-core L1D hardware prefetcher.
	Prefetch PrefetchKind
	// Stride configures the stride prefetcher (when Prefetch is
	// PrefetchStride).
	Stride StridePrefetcherConfig
	// DTLB enables data-TLB timing (zero Entries = disabled). A TLB
	// miss delays the data access by the walk latency — and is thus a
	// deferral event for checkpoint cores, exactly as in ROCK.
	DTLB TLBConfig
}

// DefaultHierConfig returns ROCK-era (2009 CMP) hierarchy parameters.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:     CacheConfig{Name: "L1I", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 1, MSHRs: 4},
		L1D:     CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 2, MSHRs: 8},
		L2:      CacheConfig{Name: "L2", SizeBytes: 4 << 20, Ways: 8, LineBytes: 64, HitLatency: 20, MSHRs: 32},
		L2Banks: 8,
		DRAM:    DRAMConfig{Latency: 300, Banks: 16, BankBusy: 24},
	}
}

type corePorts struct {
	l1i    *Cache
	l1d    *Cache
	mshrI  *MSHR
	mshrD  *MSHR
	stride *stridePrefetcher
	dtlb   *TLB
}

// HierStats aggregates hierarchy-wide counters.
type HierStats struct {
	CoherenceInvals uint64 // cross-core L1D invalidations
	Prefetches      uint64 // prefetch fills initiated

	// Transient-leakage accounting (see leak.go / docs/SECURITY.md).
	TaintedSpecAccesses uint64 // speculative accesses touching secret lines
	SquashedSpecFills   uint64 // speculative fills discarded by rollbacks (secrets installed)
	OracleChecks        uint64 // differential digest checks by the leakage oracle
}

// Hierarchy is the timing model of the memory system for one chip:
// one L1I+L1D pair per core, a shared banked L2, and DRAM. It is purely
// a timing oracle — data contents live in the functional Sparse memory.
type Hierarchy struct {
	cfg        HierConfig
	cores      []corePorts
	salts      []uint64
	listeners  []func(line uint64)
	l2         *Cache
	l2mshr     *MSHR
	l2BankFree []uint64
	dram       *DRAM
	Stats      HierStats

	// latD and latI record demand-miss latencies (data and fetch) for
	// percentile reporting. Always allocated: a per-miss Add is far off
	// the per-cycle path.
	latD *stats.Hist
	latI *stats.Hist

	// sink observes miss intervals; missNames interns the span names per
	// (core, port, level) so the enabled path allocates nothing per miss.
	sink      obs.Sink
	missNames [][2][3]string

	// flt, when set, may jitter access timing (see internal/faults).
	flt *faults.Injector

	// secretLines marks line addresses holding secret data for the
	// transient-leakage oracle (see leak.go). nil in ordinary runs.
	secretLines map[uint64]struct{}
}

// missLatLimit bounds the miss-latency histograms (cycles); longer
// misses clamp into the overflow bucket but keep exact mean/max.
const missLatLimit = 2048

// NewHierarchy builds a hierarchy serving ncores cores.
func NewHierarchy(cfg HierConfig, ncores int) (*Hierarchy, error) {
	for _, cc := range []CacheConfig{cfg.L1I, cfg.L1D, cfg.L2} {
		if err := cc.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.L1D.LineBytes != cfg.L2.LineBytes || cfg.L1I.LineBytes != cfg.L2.LineBytes {
		return nil, fmt.Errorf("mem: all caches must share one line size")
	}
	if cfg.L2Banks <= 0 {
		cfg.L2Banks = 1
	}
	if ncores <= 0 {
		return nil, fmt.Errorf("mem: ncores must be positive")
	}
	h := &Hierarchy{
		cfg:        cfg,
		l2:         NewCache(cfg.L2),
		l2mshr:     NewMSHR(cfg.L2.MSHRs),
		l2BankFree: make([]uint64, cfg.L2Banks),
		dram:       NewDRAM(cfg.DRAM, cfg.L2.LineBytes),
		latD:       stats.NewHist(missLatLimit),
		latI:       stats.NewHist(missLatLimit),
	}
	h.salts = make([]uint64, ncores)
	h.listeners = make([]func(line uint64), ncores)
	for i := 0; i < ncores; i++ {
		p := corePorts{
			l1i:   NewCache(cfg.L1I),
			l1d:   NewCache(cfg.L1D),
			mshrI: NewMSHR(cfg.L1I.MSHRs),
			mshrD: NewMSHR(cfg.L1D.MSHRs),
		}
		if cfg.Prefetch == PrefetchStride {
			p.stride = newStridePrefetcher(cfg.Stride)
		}
		p.dtlb = NewTLB(cfg.DTLB)
		h.cores = append(h.cores, p)
	}
	return h, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// SetSink installs an observability sink receiving one completed span per
// demand miss (category "memory"). It pre-interns every span name so the
// enabled path stays allocation-free.
func (h *Hierarchy) SetSink(s obs.Sink) {
	h.sink = s
	if s == nil {
		return
	}
	h.missNames = make([][2][3]string, len(h.cores))
	for i := range h.missNames {
		prefix := ""
		if len(h.cores) > 1 {
			prefix = fmt.Sprintf("core%d ", i)
		}
		for port, pn := range [2]string{"L1D", "L1I"} {
			h.missNames[i][port] = [3]string{
				prefix + pn + " miss", // unreachable: misses resolve in L2 or DRAM
				prefix + pn + " miss->L2",
				prefix + pn + " miss->DRAM",
			}
		}
	}
}

// SetFaults installs a fault injector whose mem-jitter events delay
// accesses (see internal/faults). Pass nil to disable.
func (h *Hierarchy) SetFaults(in *faults.Injector) { h.flt = in }

// L1D returns core's L1 data cache (for stats and coherence tests).
func (h *Hierarchy) L1D(core int) *Cache { return h.cores[core].l1d }

// L1I returns core's L1 instruction cache.
func (h *Hierarchy) L1I(core int) *Cache { return h.cores[core].l1i }

// CreditFetchHits credits n more L1I hits to core, made by a fetch
// pattern that repeats: it has touched exactly the lines holding the
// given fetch addresses since the L1I's LRU clock read since, and
// touches them again in the same order (see Cache.creditHits). The SST
// core's scout period jump uses it for the iterations it does not step.
func (h *Hierarchy) CreditFetchHits(core int, addrs []uint64, since, n uint64) {
	salt := h.salts[core]
	h.cores[core].l1i.creditHits(len(addrs), func(i int) uint64 { return addrs[i] ^ salt }, since, n)
}

// L2 returns the shared second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DTLB returns core's data TLB, or nil when translation modeling is
// disabled.
func (h *Hierarchy) DTLB(core int) *TLB { return h.cores[core].dtlb }

// DRAM returns the main-memory model.
func (h *Hierarchy) DRAM() *DRAM { return h.dram }

// SetAddressSalt gives core a physical-address salt XORed into every
// access it makes. The CMP harness uses this to give multiprogrammed
// copies of one workload disjoint physical footprints in the shared L2
// and DRAM, as distinct processes would have. The salt must be a
// multiple of the line size.
func (h *Hierarchy) SetAddressSalt(core int, salt uint64) {
	h.salts[core] = salt &^ uint64(h.cfg.L2.LineBytes-1)
}

// OutstandingDataMisses returns the number of in-flight L1D fills for
// core at cycle now. Used for MLP accounting.
func (h *Hierarchy) OutstandingDataMisses(core int, now uint64) int {
	return h.cores[core].mshrD.Outstanding(now)
}

// NextDataFill returns the earliest cycle strictly after now at which
// one of core's in-flight L1D fills completes (0 = none outstanding).
// The fast-forward layer bounds clock jumps with it so that MLP samples
// and outstanding-miss counts observe every fill expiry at the exact
// cycle naive stepping would.
func (h *Hierarchy) NextDataFill(core int, now uint64) uint64 {
	return h.cores[core].mshrD.NextExpiry(now)
}

// l2Port serializes access through the L2's banked ports.
func (h *Hierarchy) l2Port(line uint64, now uint64) uint64 {
	b := int((line / uint64(h.cfg.L2.LineBytes)) % uint64(len(h.l2BankFree)))
	start := now
	if h.l2BankFree[b] > start {
		start = h.l2BankFree[b]
	}
	h.l2BankFree[b] = start + 1
	return start
}

// accessL2 resolves a line request that missed in an L1, beginning at
// cycle now. It returns when the line is available and at which level it
// was found. The line is filled into L2 on a DRAM fetch.
func (h *Hierarchy) accessL2(line uint64, now uint64, markDirty bool) (uint64, Level) {
	start := h.l2Port(line, now)
	if ready, hit := h.l2.Lookup(line, start, markDirty); hit {
		return ready, LvlL2
	}
	// L2 miss: merge into or allocate an L2 MSHR, then go to DRAM.
	if ready, inflight := h.l2mshr.Lookup(line, start); inflight {
		return ready, LvlMem
	}
	t := h.l2mshr.AllocAt(start + uint64(h.cfg.L2.HitLatency))
	ready := h.dram.Read(line, t)
	h.l2mshr.Add(line, ready)
	ev := h.l2.Fill(line, ready, markDirty)
	if ev.Valid && ev.Dirty {
		h.dram.Write(ev.Addr, ready)
	}
	return ready, LvlMem
}

// Access performs a timed access by core at cycle now and returns when
// it completes and where it hit. addr may be any byte address; the
// access is attributed to the line containing it (the workloads keep
// accesses naturally aligned, so no access straddles lines).
func (h *Hierarchy) Access(core int, kind AccessKind, addr uint64, now uint64) Result {
	if h.flt != nil {
		// Injected jitter delays when the access starts; everything
		// downstream (TLB, lookup, MSHR merge) sees the later cycle, so
		// the perturbation is pure timing.
		now += h.flt.MemDelay(now, addr)
	}
	p := &h.cores[core]
	// Data accesses translate first (virtual domain, before salting).
	if p.dtlb != nil && kind != AccFetch {
		now += p.dtlb.Translate(addr)
	}
	addr ^= h.salts[core]
	l1 := p.l1d
	mshr := p.mshrD
	if kind == AccFetch {
		l1 = p.l1i
		mshr = p.mshrI
	}
	line := l1.LineAddr(addr)
	markDirty := kind == AccWrite

	if ready, hit := l1.Lookup(line, now, markDirty); hit {
		return Result{Ready: ready, Level: LvlL1}
	}
	// L1 miss. Merge with an in-flight fill if possible.
	if ready, inflight := mshr.Lookup(line, now); inflight {
		if markDirty {
			// The line will arrive; mark it dirty on arrival.
			l1.Fill(line, ready, true)
		}
		return Result{Ready: ready, Level: LvlL2, Merged: true}
	}
	if kind == AccPrefetch {
		// Non-binding: start the fill only if an MSHR is free now.
		if mshr.Outstanding(now) >= mshr.Cap() {
			return Result{Ready: now, Level: LvlL1}
		}
	}
	t := mshr.AllocAt(now + uint64(l1.Config().HitLatency))
	ready, lvl := h.accessL2(line, t, false)
	mshr.Add(line, ready)
	ev := l1.Fill(line, ready, markDirty)
	h.handleL1Victim(ev, ready)
	if kind == AccPrefetch {
		h.Stats.Prefetches++
	} else {
		// Demand miss: record its latency, and its interval if observed.
		if kind == AccFetch {
			h.latI.Add(int(ready - now))
		} else {
			h.latD.Add(int(ready - now))
		}
		if h.sink != nil {
			port := 0
			if kind == AccFetch {
				port = 1
			}
			h.sink.Span(now, ready, "memory", h.missNames[core][port][lvl])
		}
	}
	return Result{Ready: ready, Level: lvl}
}

// AccessLoad is Access(AccRead) plus hardware-prefetcher training: the
// load's PC lets the stride prefetcher associate the access stream with
// its instruction. Core models use this for demand loads.
func (h *Hierarchy) AccessLoad(core int, addr, pc uint64, now uint64) Result {
	res := h.Access(core, AccRead, addr, now)
	switch h.cfg.Prefetch {
	case PrefetchNextLine:
		if res.Level != LvlL1 {
			h.prefetchLine(core, (addr^h.salts[core])+uint64(h.cfg.L1D.LineBytes), res.Ready)
		}
	case PrefetchStride:
		p := &h.cores[core]
		for _, a := range p.stride.observe(pc, addr) {
			h.prefetchLine(core, a^h.salts[core], now)
		}
	}
	return res
}

func (h *Hierarchy) handleL1Victim(ev Eviction, now uint64) {
	if !ev.Valid || !ev.Dirty {
		return
	}
	// Write-back into L2 if present there, else to DRAM (non-inclusive).
	if h.l2.Probe(ev.Addr) {
		h.l2.Lookup(ev.Addr, now, true)
	} else {
		h.dram.Write(ev.Addr, now)
	}
}

// prefetchLine starts a non-binding fill of the line containing addr
// (already in the salted/physical domain), if capacity allows.
func (h *Hierarchy) prefetchLine(core int, addr uint64, now uint64) {
	p := &h.cores[core]
	line := p.l1d.LineAddr(addr)
	if p.l1d.Probe(line) {
		return
	}
	if p.mshrD.Outstanding(now) >= p.mshrD.Cap() {
		return
	}
	if _, inflight := p.mshrD.Lookup(line, now); inflight {
		return
	}
	ready, _ := h.accessL2(line, now, false)
	p.mshrD.Add(line, ready)
	ev := p.l1d.Fill(line, ready, false)
	h.handleL1Victim(ev, ready)
	h.Stats.Prefetches++
}

// StoreVisible makes a committed store by core coherence-visible:
// the line is invalidated from every other core's L1D. The functional
// memory already holds the data; this models only the timing effect.
func (h *Hierarchy) StoreVisible(core int, addr uint64) {
	line := h.l2.LineAddr(addr ^ h.salts[core])
	for i := range h.cores {
		if i == core {
			continue
		}
		if present, _ := h.cores[i].l1d.Invalidate(line); present {
			h.Stats.CoherenceInvals++
		}
		// Conflict listeners (transactional cores) observe every remote
		// store, cached or not: a transaction's read set outlives the
		// line's residence in the L1.
		if fn := h.listeners[i]; fn != nil {
			fn(line)
		}
	}
}

// SetInvalListener registers fn to observe the line address of every
// remote committed store, for transactional conflict detection.
func (h *Hierarchy) SetInvalListener(core int, fn func(line uint64)) {
	h.listeners[core] = fn
}
