package core

import "rocksim/internal/obs"

// PublishObs publishes the SST counters into the registry: the uniform
// cross-model core set (cycles, insts, checkpoint counts, DQ high-water
// mark — see cpu.BaseStats.PublishObs) plus the SST-specific breakdown
// under the "sst/" prefix.
func (s *Stats) PublishObs(r *obs.Registry) {
	s.BaseStats.PublishObs(r)

	// Uniform checkpoint/DQ counters (zero-valued placeholders were
	// created by the base publish; overwrite with the real figures).
	r.Counter("core/checkpoints_taken").Set(s.CheckpointsTaken)
	r.Counter("core/checkpoints_committed").Set(s.EpochCommits)
	r.Counter("core/checkpoints_aborted").Set(s.Rollbacks)
	r.Gauge("core/dq_highwater").Set(int64(s.DQOcc.Max()))

	r.Counter("sst/deferrals").Set(s.Deferrals)
	r.Counter("sst/replays").Set(s.Replays)
	r.Counter("sst/deferred_branches").Set(s.DeferredBranches)
	r.Counter("sst/deferred_branch_mispredicts").Set(s.DeferredBranchMispred)
	r.Counter("sst/pending_misses").Set(s.PendingMisses)
	r.Counter("sst/scout_entries").Set(s.ScoutEntries)
	r.Counter("sst/scout_insts").Set(s.ScoutInsts)
	r.Counter("sst/discarded_insts").Set(s.DiscardedInsts)
	r.Counter("sst/stall/dq_full").Set(s.DQFullStallCycles)
	r.Counter("sst/stall/ssb_full").Set(s.SSBFullStallCycles)
	r.Counter("sst/stall/atomic").Set(s.AtomicStallCycles)
	for cause := RollbackCause(0); cause < NumRollbackCauses; cause++ {
		r.Counter("sst/rollbacks/" + cause.String()).Set(s.RollbacksBy[cause])
	}
	for k := CycleKind(0); k < NumCycleKinds; k++ {
		r.Counter("sst/cycles/" + k.String()).Set(s.ModeCycles[k])
	}
	if s.Tx.Begins > 0 {
		r.Counter("sst/tx/begins").Set(s.Tx.Begins)
		r.Counter("sst/tx/commits").Set(s.Tx.Commits)
		r.Counter("sst/tx/aborts").Set(s.Tx.Aborts)
	}

	r.PutHist("sst/dq_occupancy", s.DQOcc)
	r.PutHist("sst/ssb_occupancy", s.SSBOcc)
	r.PutHist("sst/ckpt_occupancy", s.CkptOcc)
	r.PutHist("sst/ckpt_lifetime", s.CkptLife)
}

// Clone deep-copies the statistics block, histograms included, so the
// copy stays exact while the core it came from is reset and reused.
func (s *Stats) Clone() *Stats {
	c := *s
	c.DQOcc = s.DQOcc.Clone()
	c.SSBOcc = s.SSBOcc.Clone()
	c.CkptOcc = s.CkptOcc.Clone()
	c.CkptLife = s.CkptLife.Clone()
	return &c
}
