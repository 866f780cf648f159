package core

import (
	"fmt"

	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// ahead runs the ahead strand for one cycle with the given issue budget
// and returns how many instructions it consumed. In normal mode this is
// plain in-order execution; while speculating it executes
// miss-independent instructions and defers dependents; in scout mode it
// executes purely for prefetching.
func (c *Core) ahead(now uint64, budget int) int {
	executed := 0
	for executed < budget && !c.done {
		if c.fe.Stalled(now) {
			c.feStall = true
			break
		}
		in, pc, ok, err := c.fe.Next(now)
		if err != nil {
			if c.mode != ModeNormal {
				// Possible wrong-path garbage beyond a deferred branch
				// prediction: stall; a rollback will redirect fetch.
				c.feStall = true
				break
			}
			c.err = err
			return executed
		}
		if !ok {
			c.feStall = true
			break
		}
		cont, redirected := c.aheadInst(in, pc, now)
		if !cont {
			break
		}
		c.processed++
		c.forceProgress = false // the post-rollback instruction completed
		if c.mode == ModeNormal {
			c.stats.Retired++
		}
		if c.mode == ModeScout {
			c.stats.ScoutInsts++
		}
		c.seq++
		executed++
		if !redirected && !c.done {
			c.fe.Advance()
		}
		if redirected {
			if c.mode == ModeScout && c.sink == nil && c.fe.PC() <= pc {
				// A scout loop head: see period.go.
				c.pj.head, c.pj.headPC = true, pc
			}
			break // no issue past a control transfer in one cycle
		}
	}
	return executed
}

// aheadInst handles one instruction. It returns cont=false when the
// instruction could not be consumed this cycle (stall), and redirected
// when fetch was steered.
func (c *Core) aheadInst(in *isa.Inst, pc uint64, now uint64) (cont, redirected bool) {
	seq := c.seq
	n := in.NumSrcs()
	var vals [3]int64
	var isNA [3]bool
	anyNA := false
	// r0 never has its NA bit set and c.regs[0] is never written, so the
	// gather needs no zero-register special case.
	for i := 0; i < n; i++ {
		r := in.Src(i)
		if c.na[r] {
			isNA[i] = true
			anyNA = true
			continue
		}
		vals[i] = c.regs[r]
	}
	if anyNA && c.mode == ModeNormal {
		// Invariant: normal mode has no not-available registers. A stale
		// NA bit here means checkpoint/delivery bookkeeping broke.
		c.err = fmt.Errorf("core: NA register read in normal mode at pc=%#x (%v)", pc, in)
		return false, false
	}
	if !anyNA {
		// Short-wait scoreboard: stall-on-use for L1 hits and busy ALUs
		// (readyAt[0] is permanently zero, na bits are all clear here).
		for i := 0; i < n; i++ {
			if c.readyAt[in.Src(i)] > now {
				return false, false
			}
		}
	}

	if c.mode == ModeScout && !c.pj.bad && c.sink == nil {
		c.recordScout(in, pc, vals, isNA)
	}

	switch in.Op.Class() {
	case isa.ClassNop:
		return true, false

	case isa.ClassHalt:
		if c.mode != ModeNormal {
			// Halt cannot retire speculatively; wait for commit (or for
			// the scout rollback).
			return false, false
		}
		c.done = true
		return true, false

	case isa.ClassALU:
		return c.aheadALU(in, pc, seq, vals, isNA, anyNA, now)

	case isa.ClassLoad:
		return c.aheadLoad(in, pc, seq, vals, isNA, anyNA, now)

	case isa.ClassStore:
		return c.aheadStore(in, pc, seq, vals, isNA, anyNA, now)

	case isa.ClassBranch:
		return c.aheadBranch(in, pc, seq, vals, isNA, anyNA, now)

	case isa.ClassJump:
		return c.aheadJump(in, pc, seq, vals, anyNA, now)

	case isa.ClassAtomic:
		switch c.mode {
		case ModeNormal:
			if c.tx.active {
				c.tx.abort = TxAbortUnsupported
				c.txAbort(now)
				return true, true
			}
			addr := uint64(vals[0])
			res := c.m.Hier.Access(c.m.CoreID, mem.AccWrite, addr, now)
			old := int64(c.m.Mem.Read(addr, 8))
			if old == vals[1] {
				c.m.Mem.Write(addr, 8, uint64(vals[2]))
				c.m.StoreVisible(addr)
			}
			c.write(in.Rd, old, res.Ready, seq)
			c.stats.Stores++
			return true, false
		case ModeScout:
			// Cannot perform the atomic; poison the result and move on.
			c.markNA(in.Rd, seq)
			return true, false
		default:
			// Serialize: stall until every epoch commits.
			c.stats.AtomicStallCycles++
			return false, false
		}

	case isa.ClassBarrier:
		switch c.mode {
		case ModeNormal:
			if c.tx.active {
				c.tx.abort = TxAbortUnsupported
				c.txAbort(now)
				return true, true
			}
			return true, false
		case ModeScout:
			return true, false
		default:
			c.stats.AtomicStallCycles++
			return false, false
		}

	case isa.ClassPrefetch:
		if !anyNA {
			addr := uint64(vals[0] + int64(in.Imm))
			if c.mode != ModeNormal && c.cfg.SecureDelayOnMiss {
				// No speculative access may change observable cache state.
				c.stats.SecurePrefetchDenied++
			} else {
				res := c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, addr, now)
				if c.mode != ModeNormal {
					c.noteSpecAccess(addr, seq, res)
				}
			}
		}
		return true, false

	case isa.ClassTx:
		return c.aheadTx(in, pc, seq, now)
	}
	return true, false
}

// write updates rd with an available value.
func (c *Core) write(rd uint8, v int64, ready uint64, seq uint64) {
	if rd == isa.RegZero {
		return
	}
	c.regs[rd] = v
	c.na[rd] = false
	c.lastWriter[rd] = seq
	c.readyAt[rd] = ready
	if ready > c.sbHorizon {
		c.sbHorizon = ready
	}
}

func (c *Core) aheadALU(in *isa.Inst, pc uint64, seq uint64, vals [3]int64, isNA [3]bool, anyNA bool, now uint64) (bool, bool) {
	if anyNA {
		if c.mode == ModeScout {
			c.markNA(in.Rd, seq)
			return true, false
		}
		return c.deferToDQ(in, pc, seq, vals, isNA, false, 0), false
	}
	v := isa.ALUResult(*in, vals[0], vals[1])
	lat := uint64(in.Op.Latency())
	if c.cfg.DeferLongOps && in.Op.IsLongLatency() && in.Op.Latency() >= c.cfg.LongOpMinLatency {
		// Divides and friends are long-latency events: defer the result
		// like a miss (falls back to the scoreboard without a checkpoint).
		if c.deferResult(in.Rd, v, now+lat, pc, seq) {
			return true, false
		}
	}
	c.write(in.Rd, v, now+lat, seq)
	return true, false
}

func (c *Core) aheadLoad(in *isa.Inst, pc uint64, seq uint64, vals [3]int64, isNA [3]bool, anyNA bool, now uint64) (bool, bool) {
	if anyNA {
		// Address unknown: the load itself is deferred.
		if c.mode == ModeScout {
			c.markNA(in.Rd, seq)
			return true, false
		}
		return c.deferToDQ(in, pc, seq, vals, isNA, false, 0), false
	}
	addr := uint64(vals[0] + int64(in.Imm))
	size := in.Op.MemWidth()
	if c.mode == ModeSpec && c.loadBlockedByDeferredStore(addr, size) {
		// The load provably conflicts with an older deferred store whose
		// address is known but whose data is still NA. Defer; the
		// memory-order gate in replay keeps them in program order.
		return c.deferToDQ(in, pc, seq, vals, isNA, false, 0), false
	}
	if c.mode != ModeNormal && c.secureLoadGate(in, pc, seq, addr, size, now) {
		return true, false
	}
	raw := c.composeLoad(addr, size, seq)
	v := isa.ExtendLoad(in.Op, raw)
	res := c.m.Hier.AccessLoad(c.m.CoreID, addr, pc, now)
	c.stats.Loads++
	c.stats.CountLoadLevel(res.Level)
	if c.mode != ModeNormal {
		c.noteSpecAccess(addr, seq, res)
	}
	if c.tx.active {
		if !c.txTrackLoad(addr, size) {
			c.txAbort(now)
			return true, true
		}
	}
	if c.mode == ModeSpec {
		// Track the speculative read so an older deferred store with an
		// unknown address can verify against it at replay.
		c.readSet = append(c.readSet, readRec{seq: seq, addr: addr, size: size})
	}
	if !c.isMiss(res, now) {
		c.write(in.Rd, v, res.Ready, seq)
		return true, false
	}
	// A genuine miss: the SST event. Defer the result under a
	// checkpoint; fall back to scoreboard stalling without one.
	if c.deferResult(in.Rd, v, res.Ready, pc, seq) {
		return true, false
	}
	c.write(in.Rd, v, res.Ready, seq)
	return true, false
}

// isMiss reports whether an access result represents a long-latency
// event (beyond the L1 hit window).
func (c *Core) isMiss(res mem.Result, now uint64) bool {
	return res.Ready > now+c.l1dHit
}

// deferResult records an in-flight deferred value (miss load or long
// op): mark the destination NA and remember the arriving value. Takes a
// checkpoint when this opens speculation. Returns false when no
// checkpoint is available in normal mode (caller falls back to
// stall-on-use).
func (c *Core) deferResult(rd uint8, val int64, ready uint64, pc uint64, seq uint64) bool {
	switch c.mode {
	case ModeNormal:
		if c.tx.active {
			// The transaction owns the checkpoint hardware: misses
			// inside it stall on use rather than opening SST epochs.
			return false
		}
		if c.forceProgress && pc == c.forceProgressPC {
			// Forward-progress guarantee after a rollback: complete the
			// triggering instruction via the scoreboard instead of
			// re-opening the speculation that just failed.
			return false
		}
		if !c.takeCheckpoint(pc) {
			return false
		}
		c.mode = ModeSpec
	case ModeSpec:
		if c.cfg.CheckpointPerMiss {
			c.takeCheckpoint(pc) // best effort; epochs merge when full
		}
	case ModeScout:
		// Scouting: results still arrive and unblock dependents.
	}
	c.markNA(rd, seq)
	c.pushPend(pendingResult{seq: seq, rd: rd, val: val, ready: ready})
	c.stats.PendingMisses++
	return true
}

// deferToDQ appends an instruction to the Deferred Queue. Returns false
// when the instruction could not be consumed (DQ full → stall or scout).
func (c *Core) deferToDQ(in *isa.Inst, pc uint64, seq uint64, vals [3]int64, isNA [3]bool, predTaken bool, predTarget uint64) bool {
	limit := c.cfg.DQSize
	if c.flt != nil {
		limit = c.flt.ClampDQ(c.cycle, limit)
	}
	if len(c.dq) >= limit {
		// The scout decision stays keyed on the *configured* size: an
		// injected clamp models a transiently unusable queue, not the
		// scout ablation's absent one.
		if c.cfg.ScoutOnDQFull || c.cfg.DQSize == 0 {
			c.enterScout()
		} else {
			c.stats.DQFullStallCycles++
		}
		return false
	}
	k, e := c.dqAppend()
	*e = dqEntry{seq: seq, in: *in, pc: pc, vals: vals, nsrc: in.NumSrcs(), predTaken: predTaken, predTarget: predTarget}
	ready := true
	for i := 0; i < e.nsrc; i++ {
		if isNA[i] {
			e.isNA[i] = true
			e.dep[i] = c.lastWriter[in.Src(i)]
			c.waitOn(k, i, e.dep[i])
			ready = false
		}
	}
	if ready {
		// Deferral is always keyed on an NA operand today, but keep the
		// ready count correct if an always-ready entry ever lands here.
		c.dqReady++
	}
	c.stats.Deferrals++
	if in.Op.IsStore() {
		c.dqStores++
	}
	if rd, has := in.DestReg(); has {
		c.markNA(rd, seq)
	}
	return true
}

func (c *Core) aheadStore(in *isa.Inst, pc uint64, seq uint64, vals [3]int64, isNA [3]bool, anyNA bool, now uint64) (bool, bool) {
	addr := uint64(vals[0] + int64(in.Imm))
	switch c.mode {
	case ModeNormal:
		if c.tx.active {
			if !c.txStore(seq, addr, in.Op.MemWidth(), vals[1], now) {
				c.txAbort(now)
				return true, true
			}
			return true, false
		}
		c.m.Mem.Write(addr, in.Op.MemWidth(), uint64(vals[1]))
		c.m.Hier.Access(c.m.CoreID, mem.AccWrite, addr, now)
		c.m.StoreVisible(addr)
		c.stats.Stores++
		return true, false
	case ModeScout:
		if !isNA[0] {
			if c.cfg.SecureDelayOnMiss || c.cfg.SecureEagerSSBFlush {
				// Speculative store prefetches are a leakage channel: a
				// secret-derived address fills a line that survives the
				// scout-exit rollback.
				c.stats.SecurePrefetchDenied++
			} else {
				// Prefetch the line the store will need; discard the data.
				res := c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, addr, now)
				c.noteSpecAccess(addr, seq, res)
			}
		}
		return true, false
	default:
		if anyNA {
			if !c.deferToDQ(in, pc, seq, vals, isNA, false, 0) {
				return false, false
			}
			// Record what we know about the deferred store's address so
			// later loads can disambiguate against it. A store whose
			// address is NA is verified against the read set at replay
			// instead.
			e := &c.dqSlots[c.dq[len(c.dq)-1]]
			if !isNA[0] {
				e.memAddrKnown = true
				e.memAddr = addr
				e.memSize = in.Op.MemWidth()
			}
			return true, false
		}
		if !c.ssbInsert(ssbEntry{seq: seq, addr: addr, size: in.Op.MemWidth(), val: vals[1]}) {
			c.stats.SSBFullStallCycles++
			return false, false
		}
		if c.cfg.SecureDelayOnMiss || c.cfg.SecureEagerSSBFlush {
			c.stats.SecurePrefetchDenied++
		} else {
			// Prefetch for the commit-time write.
			res := c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, addr, now)
			c.noteSpecAccess(addr, seq, res)
		}
		return true, false
	}
}

func (c *Core) aheadBranch(in *isa.Inst, pc uint64, seq uint64, vals [3]int64, isNA [3]bool, anyNA bool, now uint64) (bool, bool) {
	if anyNA {
		// Deferred branch: follow the prediction; replay verifies.
		predTaken := c.m.Pred.PredictDir(pc)
		if c.flt.FlipPrediction(now) {
			predTaken = !predTaken
		}
		if c.mode != ModeScout {
			if c.cfg.CheckpointOnDeferredBranch {
				// Bound the rollback to the branch itself.
				c.takeCheckpoint(pc)
			}
			if !c.deferToDQ(in, pc, seq, vals, isNA, predTaken, 0) {
				return false, false
			}
			c.stats.DeferredBranches++
		}
		c.stats.Branches++
		if predTaken {
			c.fe.Redirect(in.BranchTarget(pc), now, c.cfg.TakenPenalty)
			return true, true
		}
		return true, false
	}
	taken := isa.BranchTaken(in.Op, vals[0], vals[1])
	pred := c.m.Pred.PredictDir(pc)
	if c.flt.FlipPrediction(now) {
		pred = !pred
	}
	mis := pred != taken
	c.m.Pred.UpdateDir(pc, taken, mis)
	c.stats.Branches++
	target := pc + isa.InstSize
	if taken {
		target = in.BranchTarget(pc)
	}
	var pen uint64
	switch {
	case mis:
		pen = c.cfg.MispredictPenalty
		c.stats.BranchMispred++
	case taken:
		pen = c.cfg.TakenPenalty
	}
	if pen > 0 || taken {
		c.fe.Redirect(target, now, pen)
		return true, true
	}
	return true, false
}

func (c *Core) aheadJump(in *isa.Inst, pc uint64, seq uint64, vals [3]int64, anyNA bool, now uint64) (bool, bool) {
	link := int64(pc + isa.InstSize)
	if in.Op == isa.OpJal {
		if in.Rd == isa.RegRA {
			c.m.Pred.PushReturn(pc + isa.InstSize)
		}
		c.write(in.Rd, link, now+1, seq)
		c.fe.Redirect(in.BranchTarget(pc), now, c.cfg.TakenPenalty)
		return true, true
	}
	// jalr
	if anyNA {
		// Target depends on a deferred value: predict it and defer the
		// verification (except in scout, where we just follow it).
		var predicted uint64
		var have bool
		if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
			predicted, have = c.m.Pred.PopReturn()
		} else {
			predicted, have = c.m.Pred.PredictTarget(pc)
		}
		if !have {
			return false, false // no prediction: wait for the value
		}
		if c.mode != ModeScout {
			var isNA [3]bool
			isNA[0] = true
			if !c.deferToDQ(&isa.Inst{Op: in.Op, Rs1: in.Rs1, Imm: in.Imm}, pc, seq, vals, isNA, false, predicted) {
				return false, false
			}
		}
		if in.Rd == isa.RegRA {
			c.m.Pred.PushReturn(pc + isa.InstSize)
		}
		c.write(in.Rd, link, now+1, seq)
		c.fe.Redirect(predicted, now, c.cfg.TakenPenalty)
		return true, true
	}
	target := uint64(vals[0] + int64(in.Imm))
	var predicted uint64
	var have bool
	if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
		predicted, have = c.m.Pred.PopReturn()
	} else {
		predicted, have = c.m.Pred.PredictTarget(pc)
	}
	pen := c.cfg.TakenPenalty
	if !have || predicted != target {
		pen = c.cfg.MispredictPenalty
		c.stats.BranchMispred++
	}
	c.m.Pred.UpdateTarget(pc, target)
	if in.Rd == isa.RegRA {
		c.m.Pred.PushReturn(pc + isa.InstSize)
	}
	c.write(in.Rd, link, now+1, seq)
	c.fe.Redirect(target, now, pen)
	return true, true
}
