package ooo

import (
	"fmt"
	"math/bits"
	"testing"

	"rocksim/internal/progen"
)

// windowConfigs are the two built-in configurations plus four that put
// the issue window in shapes those never reach: smaller than the ROB's
// occupancy, a ring that is not a power of two, refusals without a wait
// record (conservative loads) and sets spanning several words.
func windowConfigs() map[string]Config {
	iq1 := SmallConfig()
	iq1.IQSize, iq1.IssueWidth = 1, 1
	rob24 := SmallConfig()
	rob24.ROBSize, rob24.IQSize = 24, 24
	nospec := LargeConfig()
	nospec.SpecLoads = false
	rob256 := LargeConfig()
	rob256.ROBSize, rob256.IQSize = 256, 192
	rob256.FetchWidth, rob256.IssueWidth, rob256.CommitWidth = 8, 8, 8
	return map[string]Config{
		"ooo-small": SmallConfig(), "ooo-large": LargeConfig(),
		"iq1": iq1, "rob24": rob24, "nospec": nospec, "rob256": rob256,
	}
}

// wait classifies an entry's first unavailable operand the way the
// issue window's scan did before the window was indexed: by looking the
// operand's producer up in the ROB. parked is the producer's slot (-1
// if the operand's producer has executed), wakeAt the cycle its result
// lands (0 if every operand is available).
type wait struct {
	parked int
	wakeAt uint64
}

// scanWait resolves e's operands at cycle now without side effects.
func scanWait(c *Core, e *robEntry, now uint64) wait {
	for i := 0; i < int(e.nsrc); i++ {
		src := &e.src[i]
		if !src.hasTag || src.tag < c.headSeq {
			continue
		}
		switch p := c.slot(src.tag); {
		case !p.executed:
			return wait{parked: int(src.tag & c.mask)}
		case p.readyAt > now:
			return wait{parked: -1, wakeAt: p.readyAt}
		}
	}
	return wait{parked: -1}
}

// scanWakeMin is what the unindexed scan left in wakeMin after a cycle
// at now that issued nothing: the earliest operand landing after now
// among the IQSize oldest unissued entries older than limit, the
// nextSeq that cycle's issue stage saw.
func scanWakeMin(c *Core, now, limit uint64) uint64 {
	var min uint64
	examined := 0
	for seq := c.issueSeq; seq < limit && examined < c.cfg.IQSize; seq++ {
		e := c.slot(seq)
		if e.issued {
			continue
		}
		examined++
		if w := scanWait(c, e, now).wakeAt; w > now && (min == 0 || w < min) {
			min = w
		}
	}
	return min
}

// checkIndex recomputes the issue-window index from the ROB after the
// Step at cycle now and reports the first disagreement. zeroIssue says
// that cycle issued nothing from a non-empty ROB, limit is the nextSeq
// its issue stage saw.
func checkIndex(c *Core, now uint64, zeroIssue bool, limit uint64) error {
	ring := len(c.rob)
	live := func(k int) bool {
		e := &c.rob[k]
		return e.seq >= c.headSeq && e.seq < c.nextSeq && int(e.seq&c.mask) == k
	}
	// winEnd is one past the IQSize-th oldest unissued entry.
	winEnd, examined := c.issueSeq, 0
	for ; winEnd < c.nextSeq && examined < c.cfg.IQSize; winEnd++ {
		if !c.slot(winEnd).issued {
			examined++
		}
	}
	parked := 0
	var timedMin uint64
	for k := 0; k < ring; k++ {
		e := &c.rob[k]
		unissued := live(k) && !e.issued
		in := hasBit(c.unissued, k)
		r, tm := hasBit(c.ready, k), hasBit(c.timed, k)
		if in != unissued {
			return fmt.Errorf("slot %d (seq %d): unissued bit %v, entry unissued %v", k, e.seq, in, unissued)
		}
		if !unissued {
			if r || tm || c.waiters[k] != 0 {
				return fmt.Errorf("slot %d: not an unissued entry but ready=%v timed=%v waiters=%d", k, r, tm, c.waiters[k])
			}
			continue
		}
		w, scan := c.waits[k], scanWait(c, e, now)
		if !r && e.seq >= winEnd {
			// The scan would never have examined it.
			return fmt.Errorf("seq %d: blocked outside the window (ends at %d)", e.seq, winEnd)
		}
		switch {
		case r && tm:
			return fmt.Errorf("seq %d: both ready and timed", e.seq)
		case r:
			if w.prod != 0 {
				return fmt.Errorf("seq %d: ready but parked on slot %d", e.seq, w.prod-1)
			}
		case tm:
			if w.wakeAt <= now || w.prod != 0 {
				return fmt.Errorf("seq %d: timed at %d (prod %d) after cycle %d", e.seq, w.wakeAt, w.prod, now)
			}
			if scan.parked >= 0 || scan.wakeAt != w.wakeAt {
				return fmt.Errorf("seq %d: timed at %d, the scan finds %+v", e.seq, w.wakeAt, scan)
			}
			if timedMin == 0 || w.wakeAt < timedMin {
				timedMin = w.wakeAt
			}
		default:
			parked++
			p := int(w.prod) - 1
			if p < 0 || !live(p) || c.rob[p].executed || c.rob[p].seq >= e.seq {
				return fmt.Errorf("seq %d: parked on slot %d, which holds no older unexecuted producer", e.seq, p)
			}
			if scan.parked != p {
				return fmt.Errorf("seq %d: parked on slot %d, the scan finds %+v", e.seq, p, scan)
			}
			on := 0
			for l := c.waiters[p]; l != 0 && on <= ring; l = c.waits[l-1].next {
				if int(l-1) == k {
					on++
				}
			}
			if on != 1 {
				return fmt.Errorf("seq %d: on its producer's chain %d times", e.seq, on)
			}
		}
		if zeroIssue && r && e.seq < min(limit, winEnd) && scan != (wait{parked: -1}) {
			// A cycle that issued nothing visited every ready entry of
			// the window; one left ready cannot be waiting on an operand.
			return fmt.Errorf("seq %d: left ready by a zero-issue cycle, the scan finds %+v", e.seq, scan)
		}
	}
	// Every chain link is a parked entry counted above, so the chains
	// hold exactly the parked entries.
	links := 0
	for p := 0; p < ring; p++ {
		for l := c.waiters[p]; l != 0; l = c.waits[l-1].next {
			if links++; links > ring {
				return fmt.Errorf("waiter chains hold a cycle")
			}
			k := int(l - 1)
			if !hasBit(c.unissued, k) || hasBit(c.ready, k) || hasBit(c.timed, k) || int(c.waits[k].prod) != p+1 {
				return fmt.Errorf("slot %d on producer slot %d's chain is not parked there", k, p)
			}
		}
	}
	if links != parked {
		return fmt.Errorf("chains hold %d links, %d entries are parked", links, parked)
	}
	n := 0
	for _, w := range c.unissued {
		n += bits.OnesCount64(w)
	}
	if n != c.unissuedN {
		return fmt.Errorf("unissuedN = %d, %d bits set", c.unissuedN, n)
	}
	first := c.issueSeq
	for first < c.nextSeq && c.slot(first).issued {
		first++
	}
	if c.issueSeq < c.headSeq || first != c.issueSeq {
		return fmt.Errorf("issueSeq = %d, oldest unissued is %d", c.issueSeq, first)
	}
	if c.wakeMin != timedMin {
		return fmt.Errorf("wakeMin = %d, earliest timed entry wakes at %d", c.wakeMin, timedMin)
	}
	if zeroIssue {
		if want := scanWakeMin(c, now, limit); c.wakeMin != want {
			return fmt.Errorf("wakeMin = %d, the scan gives %d", c.wakeMin, want)
		}
	}
	return nil
}

// TestIssueIndexMatchesScan steps random programs on every window shape
// and, after every cycle, checks the issue-window index against a scan
// of the ROB: the unissued bits, each unissued entry's single state
// (ready, timed on a later cycle, or parked on its own unexecuted
// producer's chain), the chains themselves, and on a cycle that issued
// nothing, the wakeMin the unindexed scan would have left.
func TestIssueIndexMatchesScan(t *testing.T) {
	for name, cfg := range windowConfigs() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 16; seed++ {
				prog, err := progen.Program(seed, 80)
				if err != nil {
					t.Fatal(err)
				}
				c, _ := load(t, cfg, prog)
				for !c.Done() {
					if c.Cycle() >= 2_000_000 {
						t.Fatalf("seed %d: no halt by cycle %d", seed, c.Cycle())
					}
					now, limit, empty := c.Cycle(), c.nextSeq, c.stats.EmptyIssueCycles
					c.Step()
					if err := checkIndex(c, now, c.stats.EmptyIssueCycles > empty, limit); err != nil {
						t.Fatalf("seed %d, after cycle %d: %v", seed, now, err)
					}
				}
				if c.Err() != nil {
					t.Fatalf("seed %d: %v", seed, c.Err())
				}
			}
		})
	}
}
