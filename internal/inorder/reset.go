package inorder

import "rocksim/internal/isa"

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating: registers, scoreboard, load/store
// queues, clock, statistics and fast-forward state all cleared. The
// caller resets the shared machine (memory, hierarchy, predictor)
// separately — see cpu.Machine.Reset — and reinstalls per-run sinks
// afterwards, since a fresh core carries none.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	c.regs = [isa.NumRegs]int64{}
	c.readyAt = [isa.NumRegs]uint64{}
	c.loadsInFlight = c.loadsInFlight[:0]
	c.storeBuf = c.storeBuf[:0]
	c.cycle = 0
	c.done = false
	c.err = nil
	c.stats = Stats{}
	c.sink = nil
	c.occ = [2]int{}
	c.ffNext = 0
	c.ffStall = StallNone
	c.ffMLP = 0
}
