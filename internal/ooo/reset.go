package ooo

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating. It names only what outlives a run —
// the configuration, the machine and frontend, and the ROB ring and
// issue-window storage — so every other field, including any added
// later, starts the run at zero. The ring's entries and wait records
// keep stale contents (fetch overwrites a slot whole, and
// headSeq/nextSeq make stale slots unreachable); the window's bit sets
// and waiter chains are read by slot, so they are cleared. The caller
// resets the machine first and reinstalls per-run sinks afterwards.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	clear(c.unissued)
	clear(c.ready)
	clear(c.timed)
	clear(c.waiters)
	*c = Core{
		cfg:       c.cfg,
		m:         c.m,
		fe:        c.fe,
		rob:       c.rob,
		mask:      c.mask,
		unissued:  c.unissued,
		ready:     c.ready,
		timed:     c.timed,
		waits:     c.waits,
		waiters:   c.waiters,
		wordSlots: c.wordSlots,
	}
}
