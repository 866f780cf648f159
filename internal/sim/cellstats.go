// Cell statistics snapshots: the serializable extract of a cell's
// Outcome that the experiment drivers consume when assembling tables.
//
// The fleet tier (internal/fleet, cmd/rockgate) computes cells on
// remote rocksimd shards and reassembles experiment tables on the
// router. A live Outcome cannot cross a process boundary — it holds the
// concrete core model and memory hierarchy — so the shard extracts a
// CellStats, ships it as JSON, and the router rebuilds an Outcome view
// that answers every table-assembly accessor identically. The byte-
// identity tests in internal/gate pin that equivalence end to end.
package sim

import (
	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/mem"
)

// CellStats is the serializable per-cell statistics extract: everything
// the experiment drivers read from an Outcome when rendering tables.
// It deliberately carries statistics only — no memory image, no live
// machine — so it stays small on the wire.
type CellStats struct {
	Kind    string `json:"kind"`
	Cycles  uint64 `json:"cycles"`
	Retired uint64 `json:"retired"`
	// Base is the common per-core statistics block (Outcome.Core.Base()).
	Base cpu.BaseStats `json:"base"`
	// SST carries the SST-family statistics when the cell ran on a
	// core.Core (sst, sst-big, sst-ea, scout); nil otherwise.
	SST *core.Stats `json:"sst,omitempty"`
	// Cache and TLB statistics of the cell's hierarchy (core 0's L1D and
	// DTLB, the shared L2).
	L1D  *mem.CacheStats `json:"l1d,omitempty"`
	L2   *mem.CacheStats `json:"l2,omitempty"`
	DTLB *mem.TLBStats   `json:"dtlb,omitempty"`
	// Threads carries every hardware thread's statistics of a
	// multi-threaded cell (SMT strands, chip cores) in thread order; Base
	// is then their aggregate. Nil for a single-core cell.
	Threads []ThreadStats `json:"threads,omitempty"`
}

// ThreadStats is one hardware thread's statistics in a multi-threaded
// cell: an SMT strand or a chip core.
type ThreadStats struct {
	Base cpu.BaseStats `json:"base"`
	// SST carries the SST-family statistics (transaction counts
	// included) when the thread ran on a core.Core; nil otherwise.
	SST  *core.Stats `json:"sst,omitempty"`
	Pred bpred.Stats `json:"pred"`
}

// SnapshotCell extracts the serializable statistics of a finished cell
// run. The snapshot is detached: mutating the live outcome afterwards
// does not change it.
func SnapshotCell(out Outcome) *CellStats {
	if out.Cell != nil {
		// Already a snapshot (a multi-threaded cell, or a remote cell
		// re-snapshotted): copy it through unchanged.
		return out.Cell.clone()
	}
	cs := &CellStats{
		Kind:    out.Kind.String(),
		Cycles:  out.Cycles,
		Retired: out.Retired,
	}
	if out.Core != nil {
		cs.Base = *out.Core.Base()
		if cc, ok := out.Core.(*core.Core); ok {
			cs.SST = cloneSSTStats(cc.Stats())
		}
	}
	if out.Mach != nil && out.Mach.Hier != nil {
		h := out.Mach.Hier
		if l1 := h.L1D(0); l1 != nil {
			s := l1.Stats
			cs.L1D = &s
		}
		if l2 := h.L2(); l2 != nil {
			s := l2.Stats
			cs.L2 = &s
		}
		if tlb := h.DTLB(0); tlb != nil {
			s := tlb.Stats
			cs.DTLB = &s
		}
	}
	return cs
}

// clone deep-copies the snapshot.
func (cs *CellStats) clone() *CellStats {
	c := *cs
	if c.SST != nil {
		c.SST = cloneSSTStats(c.SST)
	}
	if c.Threads != nil {
		c.Threads = append([]ThreadStats(nil), c.Threads...)
		for i := range c.Threads {
			if c.Threads[i].SST != nil {
				c.Threads[i].SST = cloneSSTStats(c.Threads[i].SST)
			}
		}
	}
	return &c
}

// cloneSSTStats deep-copies an SST statistics block, cloning the
// histograms so the snapshot detaches from the (possibly pooled and
// reused) live core.
func cloneSSTStats(s *core.Stats) *core.Stats {
	c := *s
	if s.DQOcc != nil {
		c.DQOcc = s.DQOcc.Clone()
	}
	if s.SSBOcc != nil {
		c.SSBOcc = s.SSBOcc.Clone()
	}
	if s.CkptOcc != nil {
		c.CkptOcc = s.CkptOcc.Clone()
	}
	if s.CkptLife != nil {
		c.CkptLife = s.CkptLife.Clone()
	}
	return &c
}

// AsOutcome rebuilds the Outcome view of a (possibly remotely
// computed) snapshot. The view carries no live machine: Core and Mach
// are nil, and the table-assembly accessors (BaseStats, SSTStats,
// L1DStats, L2Stats, DTLBStats, IPC) answer from the snapshot.
func (cs *CellStats) AsOutcome() (Outcome, error) {
	k, err := KindByName(cs.Kind)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Kind: k, Cycles: cs.Cycles, Retired: cs.Retired, Cell: cs}, nil
}

// Threads returns the per-thread statistics of a multi-threaded cell,
// nil for a single-core one.
func (o Outcome) Threads() []ThreadStats {
	if o.Cell == nil {
		return nil
	}
	return o.Cell.Threads
}

// BaseStats returns the cell's common per-core statistics block (the
// aggregate over threads of a multi-threaded cell), answering from the
// snapshot when there is one and from the core otherwise.
func (o Outcome) BaseStats() *cpu.BaseStats {
	if o.Cell != nil {
		return &o.Cell.Base
	}
	if o.Core != nil {
		return o.Core.Base()
	}
	return &cpu.BaseStats{}
}

// SSTStats returns the SST-family statistics block of the cell, or nil
// when the cell ran on a non-SST core model.
func (o Outcome) SSTStats() *core.Stats {
	if o.Cell != nil {
		return o.Cell.SST
	}
	if c, ok := o.Core.(*core.Core); ok {
		return c.Stats()
	}
	return nil
}

// L1DStats returns the cell's L1 data-cache statistics (core 0).
func (o Outcome) L1DStats() mem.CacheStats {
	if o.Cell != nil {
		if o.Cell.L1D != nil {
			return *o.Cell.L1D
		}
		return mem.CacheStats{}
	}
	if o.Mach != nil && o.Mach.Hier != nil {
		if l1 := o.Mach.Hier.L1D(0); l1 != nil {
			return l1.Stats
		}
	}
	return mem.CacheStats{}
}

// L2Stats returns the cell's shared-L2 statistics.
func (o Outcome) L2Stats() mem.CacheStats {
	if o.Cell != nil {
		if o.Cell.L2 != nil {
			return *o.Cell.L2
		}
		return mem.CacheStats{}
	}
	if o.Mach != nil && o.Mach.Hier != nil {
		if l2 := o.Mach.Hier.L2(); l2 != nil {
			return l2.Stats
		}
	}
	return mem.CacheStats{}
}

// DTLBStats returns the cell's data-TLB statistics, or nil when
// translation modeling was disabled for the run.
func (o Outcome) DTLBStats() *mem.TLBStats {
	if o.Cell != nil {
		return o.Cell.DTLB
	}
	if o.Mach != nil && o.Mach.Hier != nil {
		if tlb := o.Mach.Hier.DTLB(0); tlb != nil {
			s := tlb.Stats
			return &s
		}
	}
	return nil
}
