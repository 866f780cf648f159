package core

import (
	"fmt"
	"strings"
)

// DebugDump renders the core's speculative state for diagnostics.
func (c *Core) DebugDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d mode=%v seq=%d pc=%#x processed=%d\n",
		c.cycle, c.mode, c.seq, c.fe.PC(), c.processed)
	fmt.Fprintf(&b, "ckpts=%d:", len(c.ckpts))
	for _, ck := range c.ckpts {
		fmt.Fprintf(&b, " {start=%d pc=%#x}", ck.startSeq, ck.pc)
	}
	fmt.Fprintf(&b, "\ndq=%d:", len(c.dq))
	for i, k := range c.dq {
		e := &c.dqSlots[k]
		if i >= 8 {
			fmt.Fprintf(&b, " ...")
			break
		}
		fmt.Fprintf(&b, " {%d %v pc=%#x", e.seq, e.in.Op, e.pc)
		for s := 0; s < e.nsrc; s++ {
			if e.isNA[s] {
				fmt.Fprintf(&b, " dep%d=%d", s, e.dep[s])
			}
		}
		fmt.Fprintf(&b, "}")
	}
	fmt.Fprintf(&b, "\npend=%d:", len(c.pend))
	for i, p := range c.pend {
		if i >= 8 {
			fmt.Fprintf(&b, " ...")
			break
		}
		fmt.Fprintf(&b, " {%d rd=%d ready=%d}", p.seq, p.rd, p.ready)
	}
	fmt.Fprintf(&b, "\nssb=%d dqStores=%d\n", len(c.ssb), c.dqStores)
	fmt.Fprintf(&b, "na:")
	for r := 0; r < len(c.na); r++ {
		if c.na[r] {
			fmt.Fprintf(&b, " r%d(w=%d)", r, c.lastWriter[r])
		}
	}
	return b.String()
}
