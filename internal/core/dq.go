package core

// The Deferred Queue keeps its entries in stable slots, allocated once
// at construction (DQSize of them; an injected clamp only lowers the
// limit). dq lists the live slots in program order — entries are
// appended with the ahead strand's monotonic seq, so the order is also
// seq order and a rollback squashes a suffix — and dqFree stacks the
// rest. Replay dequeues from the middle by moving slot numbers, not
// entries.
//
// Stable slots let the wakeup be a tag broadcast instead of a scan:
// every NA operand of a DQ entry is linked into a waiter chain keyed by
// its producer's seq, so a result touches only its own dependents. The
// chains hang off waitHead[seq & waitMask] (several producers may share
// a bucket; forward filters on the operand's dep), and operand s of
// slot k is node k<<2|s in waitNext. A node is linked exactly while its
// operand is NA: forward unlinks it when the value arrives and a squash
// unlinks it when the entry dies, so a replayed entry is on no chain.

// dqInit allocates the queue's slots and wakeup chains for n entries.
func (c *Core) dqInit(n int) {
	c.dqSlots = make([]dqEntry, n)
	c.dq = make([]int32, 0, n)
	c.dqFree = make([]int32, 0, n)
	c.waitNext = make([]int32, 4*n)
	buckets := 1
	for buckets < 4*n {
		buckets <<= 1
	}
	c.waitHead = make([]int32, buckets)
	c.waitMask = uint64(buckets - 1)
}

// dqClear empties the queue and its wakeup chains in place: every slot
// free and every chain empty.
func (c *Core) dqClear() {
	c.dq = c.dq[:0]
	c.dqFree = c.dqFree[:0]
	for k := len(c.dqSlots) - 1; k >= 0; k-- {
		c.dqFree = append(c.dqFree, int32(k))
	}
	for i := range c.waitHead {
		c.waitHead[i] = -1
	}
}

// dqAppend takes a free slot for the youngest deferred instruction and
// returns it; the caller fills the entry and links its NA operands with
// waitOn. The caller has checked the occupancy limit.
func (c *Core) dqAppend() (int32, *dqEntry) {
	k := c.dqFree[len(c.dqFree)-1]
	c.dqFree = c.dqFree[:len(c.dqFree)-1]
	c.dq = append(c.dq, k)
	return k, &c.dqSlots[k]
}

// dqRemove dequeues the entry at program-order position i, which must
// have no NA operand (so it is on no wakeup chain), and returns it. The
// slot goes back on the free stack but keeps its contents until the
// next deferral, which cannot happen before the caller has replayed it.
func (c *Core) dqRemove(i int) *dqEntry {
	k := c.dq[i]
	c.dq = append(c.dq[:i], c.dq[i+1:]...)
	c.dqFree = append(c.dqFree, k)
	return &c.dqSlots[k]
}

// dqSquash drops every entry with seq >= cut (a suffix of the queue),
// unlinking its waiting operands and keeping the store and ready counts.
func (c *Core) dqSquash(cut uint64) {
	for len(c.dq) > 0 {
		k := c.dq[len(c.dq)-1]
		e := &c.dqSlots[k]
		if e.seq < cut {
			return
		}
		c.dq = c.dq[:len(c.dq)-1]
		c.dqFree = append(c.dqFree, k)
		ready := true
		for s := 0; s < e.nsrc; s++ {
			if e.isNA[s] {
				c.unwait(k<<2|int32(s), e.dep[s])
				ready = false
			}
		}
		if ready {
			c.dqReady--
		}
		if e.in.Op.IsStore() {
			c.dqStores--
		}
	}
}

// waitOn links operand s of slot k onto the chain of producer dep.
func (c *Core) waitOn(k int32, s int, dep uint64) {
	id := k<<2 | int32(s)
	h := &c.waitHead[dep&c.waitMask]
	c.waitNext[id] = *h
	*h = id
}

// unwait unlinks node id from the chain of producer dep.
func (c *Core) unwait(id int32, dep uint64) {
	for link := &c.waitHead[dep&c.waitMask]; *link >= 0; link = &c.waitNext[*link] {
		if *link == id {
			*link = c.waitNext[id]
			return
		}
	}
}

// forward broadcasts a freshly resolved value to the DQ operands waiting
// on the producing sequence number, clearing their NA flags. This is the
// DQ half of the hardware's fill broadcast (deliverRF is the
// register-file half): values land in consumers when they resolve, so
// replay never needs a seq→value lookup table. An entry deferred after
// its producer resolved cannot exist — deferral captures a dependence
// only while the register's NA bit is set, and delivery clears that bit
// everywhere (including checkpoint copies) before any later instruction
// can observe it.
func (c *Core) forward(seq uint64, v int64) {
	link := &c.waitHead[seq&c.waitMask]
	for id := *link; id >= 0; id = *link {
		e, s := &c.dqSlots[id>>2], id&3
		if e.dep[s] != seq {
			link = &c.waitNext[id]
			continue
		}
		*link = c.waitNext[id]
		e.vals[s] = v
		e.isNA[s] = false
		if !(e.isNA[0] || e.isNA[1] || e.isNA[2]) {
			c.dqReady++
		}
	}
}

// nextReplayable finds the oldest DQ entry whose operands have all
// resolved and returns its program-order position. Resolved values are
// forwarded into waiting entries at delivery time, so readiness is a
// pure NA-flag test. There is no ordering gate between deferred memory
// operations: loads replay optimistically (joining the read set) and
// stores — whose SSB slots are sequence-sorted — verify against the
// read set when their addresses resolve, rolling back on a true
// conflict. Independent miss chains therefore replay fully in parallel.
func (c *Core) nextReplayable() (int, bool) {
	if c.dqReady == 0 {
		return 0, false
	}
	for i, k := range c.dq {
		e := &c.dqSlots[k]
		if !(e.isNA[0] || e.isNA[1] || e.isNA[2]) {
			return i, true
		}
	}
	return 0, false
}
