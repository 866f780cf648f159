package core

// Reset returns the core to its freshly constructed state, executing
// from entry, without reallocating. It names only what outlives a run —
// the configuration, the machine and frontend, the storage behind the
// speculative slices and the histograms — so every other field,
// including any added later, starts the run at zero. New calls it, so
// the fresh state is written once. The caller resets the machine first
// and reinstalls per-run sinks and fault injectors afterwards.
func (c *Core) Reset(entry uint64) {
	c.fe.Reset(entry)
	st := Stats{DQOcc: c.stats.DQOcc, SSBOcc: c.stats.SSBOcc, CkptOcc: c.stats.CkptOcc, CkptLife: c.stats.CkptLife}
	st.DQOcc.Reset()
	st.SSBOcc.Reset()
	st.CkptOcc.Reset()
	st.CkptLife.Reset()
	*c = Core{
		cfg:       c.cfg,
		m:         c.m,
		fe:        c.fe,
		l1dHit:    c.l1dHit,
		seq:       1, // seq 0 is reserved so lastWriter==0 means "no producer"
		ckpts:     c.ckpts[:0],
		dq:        c.dq[:0],
		ssb:       c.ssb[:0],
		pend:      c.pend[:0],
		dqSlots:   c.dqSlots,
		dqFree:    c.dqFree[:0],
		waitHead:  c.waitHead,
		waitNext:  c.waitNext,
		waitMask:  c.waitMask,
		readSet:   c.readSet[:0],
		specFills: c.specFills[:0],
		stats:     st,
	}
	c.dqClear()
	if c.m.Coherent {
		// A shared-memory chip watches remote stores (see coherence.go).
		c.installInvalListener()
	}
}
