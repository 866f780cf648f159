package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/inorder"
	"rocksim/internal/obs"
)

// Report is the machine-readable summary of one run, for downstream
// tooling (plotting, regression tracking, spreadsheets).
type Report struct {
	Kind    string  `json:"kind"`
	Cycles  uint64  `json:"cycles"`
	Retired uint64  `json:"retired"`
	IPC     float64 `json:"ipc"`
	MLP     float64 `json:"mlp"`

	Loads         uint64  `json:"loads"`
	Stores        uint64  `json:"stores"`
	Branches      uint64  `json:"branches"`
	BranchMispred uint64  `json:"branch_mispredicts"`
	LoadL1Pct     float64 `json:"load_l1_pct"`
	LoadL2Pct     float64 `json:"load_l2_pct"`
	LoadMemPct    float64 `json:"load_mem_pct"`

	Caches CacheReport `json:"caches"`

	// CPIStack is the cycle-accounting breakdown: every cycle attributed
	// to exactly one bucket (zero buckets omitted; the values sum to
	// Cycles, minus the smt_idle sibling view). CPITopLoss names the
	// largest non-retire bucket — the first place to look when a run is
	// slow.
	CPIStack   map[string]uint64 `json:"cpi_stack,omitempty"`
	CPITopLoss string            `json:"cpi_top_loss,omitempty"`

	SST     *SSTReport     `json:"sst,omitempty"`
	OOO     *OOOReport     `json:"ooo,omitempty"`
	InOrder *InOrderReport `json:"inorder,omitempty"`

	// Metrics is the flat observability snapshot, present when the run
	// carried a registry (Options.Metrics).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// CacheReport summarizes hierarchy behaviour.
type CacheReport struct {
	L1DMissPct float64 `json:"l1d_miss_pct"`
	L1IMissPct float64 `json:"l1i_miss_pct"`
	L2MissPct  float64 `json:"l2_miss_pct"`
	DRAMReads  uint64  `json:"dram_reads"`
	DRAMWrites uint64  `json:"dram_writes"`
	Prefetches uint64  `json:"prefetches"`
	// Demand data-miss latency percentiles, in cycles.
	LoadMissP50 int `json:"load_miss_p50,omitempty"`
	LoadMissP95 int `json:"load_miss_p95,omitempty"`
	LoadMissP99 int `json:"load_miss_p99,omitempty"`
}

// SSTReport carries the SST-specific counters.
type SSTReport struct {
	Checkpoints      uint64             `json:"checkpoints"`
	EpochCommits     uint64             `json:"epoch_commits"`
	Rollbacks        uint64             `json:"rollbacks"`
	RollbacksByCause map[string]uint64  `json:"rollbacks_by_cause"`
	Deferrals        uint64             `json:"deferrals"`
	Replays          uint64             `json:"replays"`
	DeferredBranches uint64             `json:"deferred_branches"`
	DiscardedInsts   uint64             `json:"discarded_insts"`
	ScoutEntries     uint64             `json:"scout_entries"`
	ModeCyclesPct    map[string]float64 `json:"mode_cycles_pct"`
	DQOccMean        float64            `json:"dq_occupancy_mean"`
	SSBOccMean       float64            `json:"ssb_occupancy_mean"`
	// Checkpoint lifetime (cycles from take to commit or abort).
	CkptLifeMean float64 `json:"ckpt_life_mean,omitempty"`
	CkptLifeP50  int     `json:"ckpt_life_p50,omitempty"`
	CkptLifeP95  int     `json:"ckpt_life_p95,omitempty"`
	CkptLifeP99  int     `json:"ckpt_life_p99,omitempty"`
	TxBegins     uint64  `json:"tx_begins,omitempty"`
	TxCommits    uint64  `json:"tx_commits,omitempty"`
	TxAborts     uint64  `json:"tx_aborts,omitempty"`
}

// OOOReport carries the out-of-order counters.
type OOOReport struct {
	Squashes           uint64 `json:"squashes"`
	MemOrderViolations uint64 `json:"memorder_violations"`
	WrongPathInsts     uint64 `json:"wrong_path_insts"`
	ROBFullCycles      uint64 `json:"rob_full_cycles"`
}

// InOrderReport carries the in-order stall breakdown.
type InOrderReport struct {
	StallFetch    uint64 `json:"stall_fetch"`
	StallRedirect uint64 `json:"stall_redirect"`
	StallData     uint64 `json:"stall_data"`
	StallLoads    uint64 `json:"stall_load_limit"`
	StallStores   uint64 `json:"stall_store_buffer"`
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// TopLoss names the largest non-retire cycle-accounting bucket as
// "bucket:percent%" ("-" when the run lost no cycles at all). Ties break
// toward the lower-numbered bucket for determinism.
func TopLoss(b *cpu.BaseStats) string {
	var top cpu.Bucket
	var topv uint64
	for bk := cpu.Bucket(0); bk < cpu.NumBuckets; bk++ {
		if bk == cpu.BktRetire || bk == cpu.BktSMTIdle {
			continue
		}
		if b.CPI[bk] > topv {
			top, topv = bk, b.CPI[bk]
		}
	}
	if topv == 0 {
		return "-"
	}
	return fmt.Sprintf("%s:%.1f%%", top, pct(topv, b.Cycles))
}

// NewReport builds the machine-readable summary of a finished
// single-core run.
func NewReport(out Outcome) Report {
	b := &out.Base
	h := &out.Hier
	r := Report{
		Kind:          out.Kind.String(),
		Cycles:        out.Cycles,
		Retired:       out.Retired,
		IPC:           out.IPC(),
		MLP:           b.MLP(),
		Loads:         b.Loads,
		Stores:        b.Stores,
		Branches:      b.Branches,
		BranchMispred: b.BranchMispred,
		LoadL1Pct:     pct(b.LoadL1Hits, b.Loads),
		LoadL2Pct:     pct(b.LoadL2Hits, b.Loads),
		LoadMemPct:    pct(b.LoadMemHits, b.Loads),
		Caches: CacheReport{
			L1DMissPct:  100 * h.L1D[0].MissRate(),
			L1IMissPct:  100 * h.L1I[0].MissRate(),
			L2MissPct:   100 * h.L2.MissRate(),
			DRAMReads:   h.DRAM.Reads,
			DRAMWrites:  h.DRAM.Writes,
			Prefetches:  h.Hier.Prefetches,
			LoadMissP50: h.LoadMissLat.Quantile(0.50),
			LoadMissP95: h.LoadMissLat.Quantile(0.95),
			LoadMissP99: h.LoadMissLat.Quantile(0.99),
		},
	}
	r.CPIStack = map[string]uint64{}
	for bk := cpu.Bucket(0); bk < cpu.NumBuckets; bk++ {
		if b.CPI[bk] > 0 {
			r.CPIStack[bk.String()] = b.CPI[bk]
		}
	}
	r.CPITopLoss = TopLoss(b)
	if out.Obs != nil {
		snap := out.Obs.Snapshot()
		r.Metrics = &snap
	}
	switch {
	case out.SST != nil:
		s := out.SST
		byCause := map[string]uint64{}
		for cause := core.RollbackCause(0); cause < core.NumRollbackCauses; cause++ {
			if s.RollbacksBy[cause] > 0 {
				byCause[cause.String()] = s.RollbacksBy[cause]
			}
		}
		modes := map[string]float64{}
		for k := core.CycleKind(0); k < core.NumCycleKinds; k++ {
			if s.ModeCycles[k] > 0 {
				modes[k.String()] = pct(s.ModeCycles[k], s.Cycles)
			}
		}
		r.SST = &SSTReport{
			Checkpoints:      s.CheckpointsTaken,
			EpochCommits:     s.EpochCommits,
			Rollbacks:        s.Rollbacks,
			RollbacksByCause: byCause,
			Deferrals:        s.Deferrals,
			Replays:          s.Replays,
			DeferredBranches: s.DeferredBranches,
			DiscardedInsts:   s.DiscardedInsts,
			ScoutEntries:     s.ScoutEntries,
			ModeCyclesPct:    modes,
			DQOccMean:        s.DQOcc.Mean(),
			SSBOccMean:       s.SSBOcc.Mean(),
			CkptLifeMean:     s.CkptLife.Mean(),
			CkptLifeP50:      s.CkptLife.Quantile(0.50),
			CkptLifeP95:      s.CkptLife.Quantile(0.95),
			CkptLifeP99:      s.CkptLife.Quantile(0.99),
			TxBegins:         s.Tx.Begins,
			TxCommits:        s.Tx.Commits,
			TxAborts:         s.Tx.Aborts,
		}
	case out.OOO != nil:
		s := out.OOO
		r.OOO = &OOOReport{
			Squashes:           s.Squashes,
			MemOrderViolations: s.MemOrderViolations,
			WrongPathInsts:     s.WrongPathInsts,
			ROBFullCycles:      s.ROBFullCycles,
		}
	case out.InOrder != nil:
		s := out.InOrder
		r.InOrder = &InOrderReport{
			StallFetch:    s.StallCycles[inorder.StallFetch],
			StallRedirect: s.StallCycles[inorder.StallRedirect],
			StallData:     s.StallCycles[inorder.StallData],
			StallLoads:    s.StallCycles[inorder.StallLoadLimit],
			StallStores:   s.StallCycles[inorder.StallStoreBuffer],
		}
	}
	return r
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
