package core

import (
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// replay runs the deferred strand for one cycle: it walks the Deferred
// Queue in program order and executes up to budget entries whose
// operands have resolved. Entries that are still waiting stay in the
// queue (hardware re-defers them). Memory ordering is enforced without a
// disambiguation CAM: loads replay optimistically and join the read set;
// a store whose address resolves later verifies against that read set
// and fails speculation on a true conflict; store-to-store order is
// preserved by the sequence-sorted SSB.
//
// Deferred branches are verified here; a misprediction rolls the machine
// back to the enclosing checkpoint. Returns the number of entries
// replayed this cycle.
func (c *Core) replay(now uint64, budget int) int {
	replayed := 0
	for replayed < budget && c.mode == ModeSpec && len(c.dq) > 0 {
		i, ok := c.nextReplayable()
		if !ok {
			break
		}
		// Remove the entry before executing it so a rollback triggered
		// by the entry itself sees a consistent queue.
		e := c.dqRemove(i)
		c.dqReady--
		c.resolveDirty = true
		if e.in.Op.IsStore() {
			c.dqStores--
		}
		rolledBack := c.replayEntry(e, now)
		replayed++
		c.stats.Replays++
		if rolledBack {
			break
		}
	}
	return replayed
}

// replayEntry executes one resolved DQ entry (already dequeued).
// It reports whether the entry failed speculation and rolled back.
func (c *Core) replayEntry(e *dqEntry, now uint64) (rolledBack bool) {
	in, vals := &e.in, &e.vals
	switch in.Op.Class() {
	case isa.ClassALU:
		v := isa.ALUResult(*in, vals[0], vals[1])
		c.forward(e.seq, v)
		c.deliverRF(e.seq, in.Rd, v, now)

	case isa.ClassLoad:
		addr := uint64(vals[0] + int64(in.Imm))
		size := in.Op.MemWidth()
		// Optimistic with respect to older unreplayed stores: join the
		// read set so they can verify against this load.
		c.readSet = append(c.readSet, readRec{seq: e.seq, addr: addr, size: size})
		if c.secureReplayLoad(e, addr, size, now) {
			return false
		}
		raw := c.composeLoad(addr, size, e.seq)
		v := isa.ExtendLoad(in.Op, raw)
		res := c.m.Hier.AccessLoad(c.m.CoreID, addr, e.pc, now)
		c.stats.Loads++
		c.stats.CountLoadLevel(res.Level)
		c.noteSpecAccess(addr, e.seq, res)
		if c.isMiss(res, now) {
			// A dependent miss: becomes a pending result; consumers in
			// the DQ keep waiting on this seq.
			c.pushPend(pendingResult{seq: e.seq, rd: in.Rd, val: v, ready: res.Ready})
			c.stats.PendingMisses++
			return false
		}
		c.forward(e.seq, v)
		c.deliverRF(e.seq, in.Rd, v, now)

	case isa.ClassStore:
		addr := uint64(vals[0] + int64(in.Imm))
		if c.readSetConflict(e.seq, addr, in.Op.MemWidth()) {
			// A younger speculative load read this location before the
			// store resolved: it consumed stale data. Roll back to the
			// store's epoch (the store re-executes too).
			c.rollback(c.epochOf(e.seq), now, RbMemOrder)
			return true
		}
		if !c.ssbInsert(ssbEntry{seq: e.seq, addr: addr, size: in.Op.MemWidth(), val: vals[1]}) {
			// SSB overflow during replay cannot resolve by waiting
			// (draining needs this epoch to commit): fail speculation.
			c.rollback(c.epochOf(e.seq), now, RbSSB)
			return true
		}
		if c.cfg.SecureDelayOnMiss || c.cfg.SecureEagerSSBFlush {
			// A replayed store's address may be secret-derived: its
			// prefetch is the classic transmitter. Suppress it.
			c.stats.SecurePrefetchDenied++
		} else {
			res := c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, addr, now)
			c.noteSpecAccess(addr, e.seq, res)
		}

	case isa.ClassBranch:
		taken := isa.BranchTaken(in.Op, vals[0], vals[1])
		mis := taken != e.predTaken
		// Deferred branches train at replay resolution, with the history
		// the predictor holds NOW — not the fetch-time history (see the
		// training rule in package bpred). On a mispredict the rollback
		// below restores the checkpointed fetch-path history afterwards.
		c.m.Pred.TrainDeferredDir(e.pc, taken, mis)
		if mis {
			c.stats.DeferredBranchMispred++
			c.stats.BranchMispred++
			c.rollback(c.epochOf(e.seq), now, RbBranch)
			return true
		}

	case isa.ClassJump: // deferred jalr target verification
		target := uint64(vals[0] + int64(in.Imm))
		c.m.Pred.TrainDeferredTarget(e.pc, target)
		if target != e.predTarget {
			c.stats.BranchMispred++
			c.rollback(c.epochOf(e.seq), now, RbJalr)
			return true
		}
	}
	// Stores, branches and jumps produce no register value (the jalr
	// link register is written at defer time), so nothing waits on their
	// sequence numbers and there is no value to forward.
	return false
}
