package mem

import (
	"fmt"

	"rocksim/internal/obs"
	"rocksim/internal/stats"
)

// Snapshot is a frozen, self-contained copy of the hierarchy's
// statistics: every cache level's and TLB's counters, DRAM's, the
// hierarchy-wide counters and the miss-latency histograms. It shares no
// mutable state with the live hierarchy, so a pooled simulator can hand
// it to long-lived consumers (reports, cached outcomes, the wire) and
// then reset and reuse the hierarchy. Per-core slices are indexed by
// core (hierarchy port).
type Snapshot struct {
	L1I []CacheStats `json:"l1i"`
	L1D []CacheStats `json:"l1d"`
	// DTLB is nil when translation modeling is disabled.
	DTLB []TLBStats `json:"dtlb,omitempty"`
	L2   CacheStats `json:"l2"`
	DRAM DRAMStats  `json:"dram"`
	Hier HierStats  `json:"hier"`
	// Demand-miss latency histograms (data and fetch), in cycles.
	LoadMissLat  *stats.Hist `json:"load_miss_latency"`
	FetchMissLat *stats.Hist `json:"fetch_miss_latency"`
}

// Snapshot freezes the hierarchy's statistics (see Snapshot).
func (h *Hierarchy) Snapshot() Snapshot {
	s := Snapshot{
		L1I:          make([]CacheStats, len(h.cores)),
		L1D:          make([]CacheStats, len(h.cores)),
		L2:           h.l2.Stats,
		DRAM:         h.dram.Stats,
		Hier:         h.Stats,
		LoadMissLat:  h.latD.Clone(),
		FetchMissLat: h.latI.Clone(),
	}
	for i := range h.cores {
		p := &h.cores[i]
		s.L1I[i], s.L1D[i] = p.l1i.Stats, p.l1d.Stats
		if p.dtlb != nil {
			if s.DTLB == nil {
				s.DTLB = make([]TLBStats, len(h.cores))
			}
			s.DTLB[i] = p.dtlb.Stats
		}
	}
	return s
}

// PublishObs publishes every cache level, DRAM and hierarchy-wide
// counters plus the miss-latency histograms. Single-core hierarchies use
// the flat "mem/l1d" names; CMP hierarchies add a per-core component.
func (s *Snapshot) PublishObs(r *obs.Registry) {
	for i := range s.L1D {
		prefix := "mem/"
		if len(s.L1D) > 1 {
			prefix = fmt.Sprintf("mem/core%d/", i)
		}
		s.L1D[i].PublishObs(r, prefix+"l1d")
		s.L1I[i].PublishObs(r, prefix+"l1i")
	}
	s.L2.PublishObs(r, "mem/l2")
	r.Counter("mem/dram/reads").Set(s.DRAM.Reads)
	r.Counter("mem/dram/writes").Set(s.DRAM.Writes)
	r.Counter("mem/dram/bank_conflicts").Set(s.DRAM.BankConflicts)
	r.Counter("mem/dram/busy_cycles").Set(s.DRAM.BusyCycles)
	r.Counter("mem/coherence_invals").Set(s.Hier.CoherenceInvals)
	r.Counter("mem/prefetches").Set(s.Hier.Prefetches)
	r.Counter("leak/tainted_accesses").Set(s.Hier.TaintedSpecAccesses)
	r.Counter("leak/squashed_spec_fills").Set(s.Hier.SquashedSpecFills)
	r.Counter("leak/oracle_checks").Set(s.Hier.OracleChecks)
	r.PutHist("mem/load_miss_latency", s.LoadMissLat)
	r.PutHist("mem/fetch_miss_latency", s.FetchMissLat)
}
