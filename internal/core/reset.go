package core

import "rocksim/internal/isa"

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating: every speculative structure (DQ,
// SSB, checkpoints, pending results, read set), the register file and
// NA bits, mode/scout/transaction/coherence state, the fast-forward and
// stall-snapshot caches, and all statistics (histograms cleared in
// place). seq restarts at 1 — seq 0 stays reserved so lastWriter==0
// means "no producer", exactly as in New. The caller resets the shared
// machine separately (see cpu.Machine.Reset) and reinstalls per-run
// sinks and fault injectors afterwards, since a fresh core carries
// none.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	c.regs = [isa.NumRegs]int64{}
	c.na = [isa.NumRegs]bool{}
	c.lastWriter = [isa.NumRegs]uint64{}
	c.readyAt = [isa.NumRegs]uint64{}
	c.mode = ModeNormal
	c.seq = 1
	c.ckpts = c.ckpts[:0]
	c.dqClear()
	c.ssb = c.ssb[:0]
	c.pend = c.pend[:0]
	c.pendMin = 0
	c.pendSeqMin = 0
	c.sbHorizon = 0
	c.readSet = c.readSet[:0]
	c.processed = 0
	c.scoutTriggerSeq = 0
	c.scoutTriggerReady = 0
	c.scoutArmed = false
	c.forceProgress = false
	c.forceProgressPC = 0
	c.tx = txState{}
	c.cohSeq = 0
	c.sink = nil
	c.occ = [4]int{}
	c.flt = nil
	c.done = false
	c.err = nil
	c.cycle = 0
	c.resolveDirty = false
	c.quiet = 0
	c.snapBuf = stepSnap{}
	c.feStall = false
	c.ffNext = 0
	c.ffKind = 0
	c.ffBucket = 0
	c.ffDQStall = 0
	c.ffSSBStall = 0
	c.ffAtStall = 0
	c.ffSecDelay = 0
	c.ffSecNoFwd = 0
	c.ffSecSSB = 0
	c.ffMLP = 0
	c.secPending = 0
	c.specFills = c.specFills[:0]

	dq, ssb, ckpt, life := c.stats.DQOcc, c.stats.SSBOcc, c.stats.CkptOcc, c.stats.CkptLife
	dq.Reset()
	ssb.Reset()
	ckpt.Reset()
	life.Reset()
	c.stats = Stats{DQOcc: dq, SSBOcc: ssb, CkptOcc: ckpt, CkptLife: life}

	// The machine reset dropped the hierarchy's listeners; mirror New by
	// re-registering on a coherent chip. (The pooled single-core path is
	// never coherent, but the contract is Reset == New regardless.)
	c.invalListener = false
	if c.m.Coherent {
		c.installInvalListener()
	}
}
