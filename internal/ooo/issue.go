package ooo

import (
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// issue selects up to IssueWidth ready instructions among the IQSize
// oldest unissued entries, in age order, and executes them, returning
// how many issued. Only the window's ready entries are visited (see
// window.go); timed and parked ones count toward IQSize without being
// touched.
func (c *Core) issue(now uint64) int {
	if c.wakeMin != 0 && now >= c.wakeMin {
		c.expireTimed(now)
	}
	issued := 0
	end := c.nextSeq
	if c.unissuedN > c.cfg.IQSize {
		end = c.windowEnd()
	}
	// A squash inside tryExecute lowers nextSeq; the bound is re-read.
	// The ready bits are re-read after every visit: an execution wakes
	// younger waiters that this same scan must still reach.
	for seq := c.nextSet(c.ready, c.issueSeq, end); seq < min(end, c.nextSeq); seq = c.nextSet(c.ready, seq+1, end) {
		k := int(seq & c.mask)
		if c.tryExecute(&c.rob[k], now) {
			c.issued(k)
			if issued++; issued == c.cfg.IssueWidth {
				break
			}
		}
	}
	c.issueSeq = c.nextSet(c.unissued, c.issueSeq, c.nextSeq)
	if issued == 0 && c.count > 0 {
		c.stats.EmptyIssueCycles++
	}
	return issued
}

// operands returns the source values of e at cycle now. When one is not
// available it parks or times e in the issue window and returns false.
func (c *Core) operands(e *robEntry, now uint64) ([3]int64, bool) {
	var vals [3]int64
	for i := 0; i < int(e.nsrc); i++ {
		src := &e.src[i]
		if !src.hasTag {
			if src.reg != isa.RegZero {
				vals[i] = c.regs[src.reg]
			}
			continue
		}
		if src.tag < c.headSeq {
			// Producer already committed; its value is architectural.
			vals[i] = c.regs[src.reg]
			continue
		}
		p := c.slot(src.tag)
		switch {
		case !p.executed:
			c.park(int(e.seq&c.mask), int(src.tag&c.mask))
			return vals, false
		case p.readyAt > now:
			c.sleep(int(e.seq&c.mask), p.readyAt)
			return vals, false
		default:
			vals[i] = p.value
		}
	}
	return vals, true
}

// tryExecute attempts to issue entry e. It returns true if the entry
// issued this cycle.
func (c *Core) tryExecute(e *robEntry, now uint64) bool {
	in := e.in
	vals, ready := c.operands(e, now)
	if !ready {
		return false
	}
	switch in.Op.Class() {
	case isa.ClassNop, isa.ClassHalt:
		e.value = 0
		e.readyAt = now
	case isa.ClassBarrier:
		// Serializing: only at the head.
		if e.seq != c.headSeq {
			return false
		}
		e.readyAt = now + 1
	case isa.ClassALU:
		e.value = isa.ALUResult(in, vals[0], vals[1])
		e.readyAt = now + uint64(in.Op.Latency())
	case isa.ClassLoad:
		return c.issueLoad(e, vals[0], now)
	case isa.ClassStore:
		e.addr = uint64(vals[0] + int64(in.Imm))
		e.msize = uint8(in.Op.MemWidth())
		e.storeVal = vals[1]
		e.addrValid = true
		e.readyAt = now + 1
		e.issued = true
		e.executed = true
		c.checkViolations(e, now)
		return true
	case isa.ClassBranch:
		taken := isa.BranchTaken(in.Op, vals[0], vals[1])
		mis := taken != e.predTaken
		c.m.Pred.UpdateDir(e.pc, taken, mis)
		c.stats.Branches++
		e.readyAt = now + 1
		e.issued = true
		e.executed = true
		if mis {
			c.stats.BranchMispred++
			c.stats.Squashes++
			target := e.pc + isa.InstSize
			if taken {
				target = in.BranchTarget(e.pc)
			}
			c.squashAfter(e.seq, target, now, c.cfg.MispredictPenalty)
		}
		return true
	case isa.ClassJump:
		e.value = int64(e.pc + isa.InstSize)
		e.readyAt = now + 1
		e.issued = true
		e.executed = true
		if in.Op == isa.OpJalr {
			target := uint64(vals[0] + int64(in.Imm))
			c.m.Pred.UpdateTarget(e.pc, target)
			switch {
			case c.fetchBlocked && c.fetchBlockedSeq == e.seq:
				c.fetchBlocked = false
				c.fe.Redirect(target, now, c.cfg.TakenPenalty)
			case e.hasPredTgt && e.predTarget != target:
				c.stats.BranchMispred++
				c.stats.Squashes++
				c.squashAfter(e.seq, target, now, c.cfg.MispredictPenalty)
			}
		}
		return true
	case isa.ClassAtomic:
		// Atomics execute non-speculatively at the ROB head.
		if e.seq != c.headSeq {
			return false
		}
		addr := uint64(vals[0])
		res := c.m.Hier.Access(c.m.CoreID, mem.AccWrite, addr, now)
		old := int64(c.m.Mem.Read(addr, 8))
		if old == vals[1] {
			c.m.Mem.Write(addr, 8, uint64(vals[2]))
			c.m.StoreVisible(addr)
		}
		e.value = old
		e.addr = addr
		e.msize = 8
		e.addrValid = true
		e.readyAt = res.Ready
	case isa.ClassPrefetch:
		c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, uint64(vals[0]+int64(in.Imm)), now)
		e.readyAt = now
	case isa.ClassTx:
		// No transactional hardware: flat execution, always succeeds
		// (txbegin's destination commits as zero).
		e.value = 0
		e.readyAt = now + 1
	}
	e.issued = true
	e.executed = true
	return true
}

// issueLoad handles disambiguation, forwarding and timing for a load.
func (c *Core) issueLoad(e *robEntry, base int64, now uint64) bool {
	in := e.in
	addr := uint64(base + int64(in.Imm))
	size := in.Op.MemWidth()

	// Conservative disambiguation: wait until every older store has
	// issued. With SpecLoads the load speculates past them instead and
	// the violation check catches a conflict.
	if !c.cfg.SpecLoads && c.stores > 0 {
		for s := c.headSeq; s < e.seq; s++ {
			if st := c.slot(s); st.in.Op.IsStore() && !st.addrValid {
				return false
			}
		}
	}

	// Compose the value: architectural memory overlaid with older
	// in-flight stores (program order), byte by byte. Fixed-size scratch:
	// MemWidth is at most 8, and stack arrays keep the hot load path
	// allocation-free.
	var bufArr [8]byte
	var fromArr [8]bool
	buf := bufArr[:size]
	fromStore := fromArr[:size]
	raw := c.m.Mem.Read(addr, size)
	for i := 0; i < size; i++ {
		buf[i] = byte(raw >> (8 * i))
	}
	forwardedAll := size > 0
	if c.stores > 0 {
		for s := c.headSeq; s < e.seq; s++ {
			if st := c.slot(s); st.in.Op.IsStore() && st.addrValid {
				overlayStore(buf, fromStore, addr, st.addr, int(st.msize), st.storeVal)
			}
		}
	}
	for _, f := range fromStore {
		if !f {
			forwardedAll = false
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	e.value = isa.ExtendLoad(in.Op, v)
	e.addr = addr
	e.msize = uint8(size)
	e.addrValid = true

	if forwardedAll {
		e.readyAt = now + 1
	} else {
		res := c.m.Hier.AccessLoad(c.m.CoreID, addr, e.pc, now)
		e.readyAt = res.Ready
		c.stats.CountLoadLevel(res.Level)
	}
	c.stats.Loads++
	e.issued = true
	e.executed = true
	return true
}

// overlayStore copies the bytes of a store that overlap the load window
// [base, base+len(buf)) into buf.
func overlayStore(buf []byte, from []bool, base, saddr uint64, ssize int, sval int64) {
	for b := 0; b < ssize; b++ {
		a := saddr + uint64(b)
		if a >= base && a < base+uint64(len(buf)) {
			buf[a-base] = byte(uint64(sval) >> (8 * b))
			from[a-base] = true
		}
	}
}

// checkViolations detects younger loads that issued speculatively past
// this store and read stale data; the oldest violator and everything
// younger are squashed and refetched.
func (c *Core) checkViolations(st *robEntry, now uint64) {
	if !c.cfg.SpecLoads {
		return
	}
	for s := st.seq + 1; s < c.nextSeq; s++ {
		l := c.slot(s)
		if !l.in.Op.IsLoad() || !l.issued || !l.addrValid {
			continue
		}
		if rangesOverlap(l.addr, int(l.msize), st.addr, int(st.msize)) {
			c.stats.MemOrderViolations++
			c.stats.Squashes++
			// Squash from the violating load (inclusive) and refetch it.
			c.squashAfter(l.seq-1, l.pc, now, c.cfg.MispredictPenalty)
			return
		}
	}
}

func rangesOverlap(a uint64, an int, b uint64, bn int) bool {
	return a < b+uint64(bn) && b < a+uint64(an)
}
