package ooo

import "rocksim/internal/isa"

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating. The ROB ring's entries and wait
// records are not zeroed: fetch fully overwrites a slot and its wait
// record on allocation and headSeq/nextSeq make stale slots
// unreachable, so clearing them would only burn cycles. The window's
// bit sets and waiter chains are read by slot, so they are cleared. The
// caller resets the shared machine separately (see cpu.Machine.Reset)
// and reinstalls per-run sinks afterwards.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	c.regs = [isa.NumRegs]int64{}
	c.regTag = [isa.NumRegs]uint64{}
	c.tagOK = [isa.NumRegs]bool{}
	c.count = 0
	c.headSeq = 0
	c.nextSeq = 0
	c.memOps = 0
	c.stores = 0
	c.issueSeq = 0
	clear(c.unissued)
	clear(c.ready)
	clear(c.timed)
	clear(c.waiters)
	c.unissuedN = 0
	c.wakeMin = 0
	c.fetchBlockedSeq = 0
	c.fetchBlocked = false
	c.fetchGarbage = false
	c.haltFetched = false
	c.cycle = 0
	c.done = false
	c.err = nil
	c.stats = Stats{}
	c.sink = nil
	c.occ = [2]int{}
	c.ffNext = 0
	c.ffRobFull = 0
	c.ffFetchStall = 0
	c.ffEmptyIssue = 0
	c.ffMLP = 0
}
