package ooo

import "math/bits"

// The issue window is indexed beside the ROB ring, one bit per ring slot
// in each of three sets, so the issue scan visits only entries that can
// issue instead of walking every unissued one:
//
//   - unissued: the slot holds an entry in [headSeq, nextSeq) that has
//     not issued;
//   - ready: unissued and not known to be blocked;
//   - timed: blocked until waits[slot].wakeAt, the cycle its operand
//     lands (its producer has executed).
//
// An unissued entry in neither ready nor timed is parked: its operand
// comes from a producer that has not executed, and it sits on that
// producer's waiter chain (waiters[producer slot], linked through
// waits[slot].next). When the producer executes, issued moves its whole
// chain back into ready, the way a Tomasulo result broadcast wakes only
// the stations holding its tag. A timed entry returns to ready once the
// clock reaches its wakeAt.
//
// An entry becomes timed or parked only when the scan examines it, that
// is inside the window of the IQSize oldest unissued entries. It stays
// inside until it issues or is squashed: older entries only leave and
// fetch appends younger ones. So every blocked entry lies in the window,
// and visiting the window's ready bits in age order examines exactly
// what a walk of every window entry would, cycle for cycle.

// waitRec is a ring slot's wait record, valid while the slot's entry is
// timed or parked. Slot references are stored plus one, so zero means
// none.
type waitRec struct {
	wakeAt uint64 // timed: the cycle the blocking operand lands
	prod   int32  // parked: 1 + the slot of the producer whose chain holds this entry
	next   int32  // parked: 1 + the slot of the next waiter on that chain
}

func setBit(set []uint64, k int)      { set[k>>6] |= 1 << (k & 63) }
func clearBit(set []uint64, k int)    { set[k>>6] &^= 1 << (k & 63) }
func hasBit(set []uint64, k int) bool { return set[k>>6]&(1<<(k&63)) != 0 }

// bitsFrom returns the bits of set from seq's slot to the end of its
// word (bit 0 is seq's slot) and how many slots that word span covers.
// Bits past the ring's end are always clear, so a set bit at offset j
// is the slot of seq+j.
func (c *Core) bitsFrom(set []uint64, seq uint64) (uint64, uint64) {
	k := int(seq & c.mask)
	return set[k>>6] >> (k & 63), uint64(c.wordSlots - k&63)
}

// nextSet returns the first seq in [from, limit) whose slot is in set,
// or limit if there is none. No member of set may be more than one
// ring's length below limit, so a slot met again after the search
// wraps maps to a seq at or past limit.
func (c *Core) nextSet(set []uint64, from, limit uint64) uint64 {
	for seq := from; seq < limit; {
		b, span := c.bitsFrom(set, seq)
		if b != 0 {
			return min(seq+uint64(bits.TrailingZeros64(b)), limit)
		}
		seq += span
	}
	return limit
}

// windowEnd returns the seq just past the IQSize-th oldest unissued
// entry. More than IQSize entries must be unissued.
func (c *Core) windowEnd() uint64 {
	left := c.cfg.IQSize
	for seq := c.issueSeq; ; {
		b, span := c.bitsFrom(c.unissued, seq)
		// After a wrap the word may also hold already counted slots, but
		// they sit above the slots still to count, which are enough.
		if n := bits.OnesCount64(b); n < left {
			left -= n
			seq += span
			continue
		}
		for ; left > 1; left-- {
			b &= b - 1
		}
		return seq + uint64(bits.TrailingZeros64(b)) + 1
	}
}

// expireTimed moves every timed entry whose operand has landed by cycle
// now back into ready and recomputes wakeMin over the rest.
func (c *Core) expireTimed(now uint64) {
	var next uint64
	for w, word := range c.timed {
		for word != 0 {
			k := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if t := c.waits[k].wakeAt; t > now {
				if next == 0 || t < next {
					next = t
				}
				continue
			}
			clearBit(c.timed, k)
			setBit(c.ready, k)
		}
	}
	c.wakeMin = next
}

// enter adds freshly fetched slot k to the window as ready.
func (c *Core) enter(k int) {
	setBit(c.unissued, k)
	setBit(c.ready, k)
	c.unissuedN++
	c.waits[k] = waitRec{}
}

// sleep marks slot k blocked until cycle t.
func (c *Core) sleep(k int, t uint64) {
	clearBit(c.ready, k)
	setBit(c.timed, k)
	c.waits[k].wakeAt = t
	if c.wakeMin == 0 || t < c.wakeMin {
		c.wakeMin = t
	}
}

// park marks slot k blocked on the unexecuted producer in slot p.
func (c *Core) park(k, p int) {
	clearBit(c.ready, k)
	w := &c.waits[k]
	w.prod = int32(p + 1)
	w.next = c.waiters[p]
	c.waiters[p] = int32(k + 1)
}

// issued removes slot k, which has just executed, from the window and
// wakes every entry parked on it.
func (c *Core) issued(k int) {
	clearBit(c.unissued, k)
	clearBit(c.ready, k)
	c.unissuedN--
	for w := c.waiters[k]; w != 0; {
		i := int(w - 1)
		setBit(c.ready, i)
		c.waits[i].prod = 0
		w = c.waits[i].next
	}
	c.waiters[k] = 0
}

// drop removes slot k, whose entry a squash is discarding, from the
// window. A parked entry leaves its producer's chain unless that
// producer is being discarded too (end is the first discarded seq): then
// the whole chain goes, since every waiter is younger than its producer.
func (c *Core) drop(k int, end uint64) {
	if !hasBit(c.unissued, k) {
		return
	}
	clearBit(c.unissued, k)
	c.unissuedN--
	c.waiters[k] = 0
	switch {
	case hasBit(c.ready, k):
		clearBit(c.ready, k)
	case hasBit(c.timed, k):
		clearBit(c.timed, k)
	default:
		if p := int(c.waits[k].prod - 1); c.rob[p].seq < end {
			c.unlink(p, k)
		}
	}
}

// unlink removes slot k from the waiter chain of producer slot p.
func (c *Core) unlink(p, k int) {
	for link := &c.waiters[p]; *link != 0; link = &c.waits[*link-1].next {
		if int(*link-1) == k {
			*link = c.waits[k].next
			return
		}
	}
}
