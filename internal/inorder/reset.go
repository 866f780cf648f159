package inorder

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating. It names only what outlives a run —
// the configuration, the machine and frontend, and the load and store
// queues' storage — so every other field, including any added later,
// starts the run at zero. The caller resets the machine first and
// reinstalls per-run sinks afterwards.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	*c = Core{
		cfg:           c.cfg,
		m:             c.m,
		fe:            c.fe,
		loadsInFlight: c.loadsInFlight[:0],
		storeBuf:      c.storeBuf[:0],
	}
}
