// Cell statistics snapshots: the one representation of a finished run's
// statistics. Every Outcome carries its CellStats, taken when the run
// finishes and detached from the live machine, so the pool can reset
// and reuse the machine while the outcome is cached and read
// indefinitely.
//
// The fleet tier (internal/fleet, cmd/rockgate) computes cells on
// remote rocksimd shards and reassembles experiment tables on the
// router. The snapshot is plain data, so the shard ships it as JSON and
// the router's Outcome is the same snapshot decoded. The byte-identity
// tests in internal/gate pin that equivalence end to end.
package sim

import (
	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/ooo"
)

// CellStats is the serializable statistics snapshot of one cell run:
// everything reports, metrics and the experiment tables read. It
// carries statistics only — no memory image, no live machine — so it
// stays small on the wire.
type CellStats struct {
	Kind    Kind   `json:"kind"`
	Cycles  uint64 `json:"cycles"`
	Retired uint64 `json:"retired"`
	// ThreadStats holds a single core's blocks. In a multi-threaded cell
	// only its Base is set, the aggregate over the threads.
	ThreadStats
	// Hier is the memory hierarchy's statistics (shared by every thread).
	Hier mem.Snapshot `json:"hier"`
	// Threads carries every hardware thread's statistics of a
	// multi-threaded cell (SMT strands, chip cores) in thread order. Nil
	// for a single-core cell.
	Threads []ThreadStats `json:"threads,omitempty"`
}

// ThreadStats is one hardware thread's statistics: the common block,
// the full block of the core model that ran it (exactly one of SST, OOO
// and InOrder is set) and its branch predictor's counters.
type ThreadStats struct {
	Base    cpu.BaseStats  `json:"base"`
	SST     *core.Stats    `json:"sst,omitempty"`
	OOO     *ooo.Stats     `json:"ooo,omitempty"`
	InOrder *inorder.Stats `json:"inorder,omitempty"`
	Pred    bpred.Stats    `json:"pred"`
}

// snapshotThread freezes one hardware thread's statistics.
func snapshotThread(c cpu.Core, m *cpu.Machine) ThreadStats {
	ts := ThreadStats{Base: *c.Base(), Pred: m.Pred.Stats}
	switch cc := c.(type) {
	case *core.Core:
		ts.SST = cc.Stats().Clone()
	case *ooo.Core:
		s := *cc.Stats()
		ts.OOO = &s
	case *inorder.Core:
		s := *cc.Stats()
		ts.InOrder = &s
	}
	return ts
}

// publishObs publishes the thread's model counters (its full block, or
// the common block when no model block is set) and predictor counters.
func (t *ThreadStats) publishObs(r *obs.Registry) {
	switch {
	case t.SST != nil:
		t.SST.PublishObs(r)
	case t.OOO != nil:
		t.OOO.PublishObs(r)
	case t.InOrder != nil:
		t.InOrder.PublishObs(r)
	default:
		t.Base.PublishObs(r)
	}
	t.Pred.PublishObs(r)
}
