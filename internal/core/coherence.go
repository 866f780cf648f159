package core

// Coherence-driven speculation repair. On a shared-memory chip
// (cpu.Machine.Coherent) every committed remote store invalidates the
// line in the other cores' L1Ds and calls their invalidation listeners
// (mem.Hierarchy.StoreVisible). The SST core uses that single listener
// for two consumers:
//
//   - an open transaction aborts when the store hits its read set or its
//     buffered write set (ROCK's HTM conflict detection, see htm.go);
//
//   - outside transactions, a speculative load whose line is invalidated
//     may have captured a stale value — ahead loads read architectural
//     memory at issue time and deferred loads at replay time, so a
//     remote store landing between two loads' reads can be observed out
//     of program order. TSO forbids making that visible, so the epoch
//     containing the oldest conflicting load rolls back (RbCoherence)
//     and re-executes against current memory. This is the load-side
//     counterpart of readSetConflict's store-side check, and mirrors
//     ROCK discarding speculative work when a line with a speculative-
//     read bit set is lost.
//
// The listener runs during the *storing* core's Step — chips step cores
// sequentially in one goroutine (cmp.Chip.Step), never during ours — so
// it only records the conflict (cohSeq); applyCoherence performs the
// rollback at the top of our next Step, before replay can consume any
// stale deferred value. NextEvent treats a pending conflict (or a
// pending transaction abort) as an immediate event so a fast-forward
// jump recorded earlier in the cycle cannot delay the repair.

// installInvalListener registers the core's remote-store listener with
// the hierarchy. Installed eagerly for coherent machines at New and
// lazily at the first txbegin otherwise.
func (c *Core) installInvalListener() {
	if c.invalListener {
		return
	}
	c.invalListener = true
	c.m.Hier.SetInvalListener(c.m.CoreID, c.onRemoteStore)
}

// onRemoteStore handles one invalidated line (line-aligned address).
func (c *Core) onRemoteStore(line uint64) {
	if c.tx.active {
		if c.tx.abort != 0 {
			return
		}
		if _, ok := c.tx.reads[line]; ok {
			c.tx.abort = TxAbortConflict
			return
		}
		for _, s := range c.ssb {
			if c.lineAddr(s.addr) == line {
				c.tx.abort = TxAbortConflict
				return
			}
		}
		return
	}
	if c.mode != ModeSpec {
		return
	}
	for i := range c.readSet {
		r := &c.readSet[i]
		if c.lineAddr(r.addr) != line && c.lineAddr(r.addr+uint64(r.size)-1) != line {
			continue
		}
		if c.cohSeq == 0 || r.seq < c.cohSeq {
			c.cohSeq = r.seq
		}
	}
}

// applyCoherence consumes a recorded read-set conflict: roll back the
// epoch containing the oldest invalidated load. Runs before replay and
// commit in Step, so the conflicting load can neither commit nor feed a
// stale value onward once the conflict is known.
func (c *Core) applyCoherence(now uint64) {
	seq := c.cohSeq
	c.cohSeq = 0
	if c.mode != ModeSpec || len(c.ckpts) == 0 {
		// The epoch already rolled back (or aborted) for another reason
		// between recording and applying; nothing left to repair.
		return
	}
	c.rollback(c.epochOf(seq), now, RbCoherence)
}
