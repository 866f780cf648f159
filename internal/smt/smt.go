// Package smt models a ROCK core's *other* operating mode: instead of
// devoting both hardware strands to one SST thread, the core runs two
// independent threads with fine-grained multithreading (Niagara-style
// cycle interleave). The two thread contexts share the physical core's
// L1 caches and MSHRs (same hierarchy port) but have private
// architectural state, functional memory and predictors.
//
// The experiment F12 uses this to reproduce ROCK's headline software
// choice: two threads for throughput, or one SST thread for latency.
// The pair is a cpu.Core (and cpu.FastForwarder), stepped by the same
// watchdogged cpu.RunCtx loop as every other machine.
package smt

import (
	"fmt"

	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
)

// Thread is one hardware thread context of the SMT pair.
type Thread struct {
	Core *inorder.Core
	Mach *cpu.Machine
}

// Core interleaves two in-order thread contexts cycle by cycle. When
// one thread halts, the other receives every cycle (as real FG-MT
// hardware does).
type Core struct {
	threads [2]Thread
	cycle   uint64
	err     error
	agg     cpu.BaseStats
}

// New builds the SMT pair. Both machines must share the hierarchy and
// core ID (they model one physical core).
func New(a, b Thread) (*Core, error) {
	if a.Mach.Hier != b.Mach.Hier || a.Mach.CoreID != b.Mach.CoreID {
		return nil, fmt.Errorf("smt: threads must share one physical core's hierarchy port")
	}
	return &Core{threads: [2]Thread{a, b}}, nil
}

// Build builds an SMT pair over a fresh single-port hierarchy: two
// in-order strands with private functional memories, drawing their
// predictors from one group (pcfg.Share decides partitioned, shared or
// hashed tables), both starting at address 0 with no program loaded.
// Reset sets the entry points; the caller loads each strand's program
// into Thread(i).Mach.Mem.
func Build(hcfg mem.HierConfig, pcfg bpred.Config, icfg inorder.Config) (*Core, error) {
	hier, err := mem.NewHierarchy(hcfg, 1)
	if err != nil {
		return nil, err
	}
	preds := bpred.NewGroup(pcfg, 2)
	var th [2]Thread
	for i := range th {
		mach := &cpu.Machine{Mem: mem.NewSparse(), Hier: hier, CoreID: 0, Pred: preds[i]}
		th[i] = Thread{Core: inorder.New(mach, icfg, 0), Mach: mach}
	}
	return New(th[0], th[1])
}

// Reset returns the pair to its freshly built state, strand i executing
// from entries[i], without reallocating: each strand's memory, the one
// hierarchy and predictor group they share, and both cores are cleared
// in place, each shared structure once.
func (c *Core) Reset(entries [2]uint64) {
	a, b := c.threads[0].Mach, c.threads[1].Mach
	a.Hier.Reset()
	a.Mem.Reset()
	b.Mem.Reset()
	bpred.ResetGroup([]*bpred.Predictor{a.Pred, b.Pred})
	for i := range c.threads {
		c.threads[i].Core.Reset(entries[i])
	}
	*c = Core{threads: c.threads}
}

// Step advances the physical core one cycle: the issue slot belongs to
// one thread, the other only ages.
func (c *Core) Step() {
	turn := int(c.cycle % 2)
	t0, t1 := &c.threads[turn], &c.threads[1-turn]
	switch {
	case !t0.Core.Done():
		t0.Core.Step()
		if !t1.Core.Done() {
			t1.Core.Tick()
		}
	case !t1.Core.Done():
		t1.Core.Step()
	}
	for i := range c.threads {
		if err := c.threads[i].Core.Err(); err != nil && c.err == nil {
			c.err = fmt.Errorf("smt thread %d: %w", i, err)
		}
	}
	c.cycle++
}

// Cycle returns the physical core's cycle count.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether both threads have halted.
func (c *Core) Done() bool {
	return c.threads[0].Core.Done() && c.threads[1].Core.Done()
}

// Retired returns the aggregate retired instructions of both threads.
func (c *Core) Retired() uint64 {
	return c.threads[0].Core.Retired() + c.threads[1].Core.Retired()
}

// Err returns the first fatal error from either thread.
func (c *Core) Err() error { return c.err }

// Base returns an aggregate statistics block (summed across threads;
// Cycles is the physical core's cycle count).
func (c *Core) Base() *cpu.BaseStats {
	// Cycle accounting sums across threads. Each physical cycle shows up
	// once as an issue-slot bucket (in the thread that owned the slot)
	// and, while both threads run, once as the sibling's smt_idle — so
	// the aggregate invariant is sum(CPI) - CPI[smt_idle] == Cycles.
	c.agg = cpu.BaseStats{Cycles: c.cycle}
	c.agg.Add(c.threads[0].Core.Base())
	c.agg.Add(c.threads[1].Core.Base())
	return &c.agg
}

// Thread returns one thread context (for per-thread statistics).
func (c *Core) Thread(i int) Thread { return c.threads[i] }

// NextEvent implements cpu.FastForwarder: the physical core can jump
// only while every alive thread is provably in a pure stall, to the
// earliest cycle either one can change. A thread's stall horizon is
// recorded at its last issue slot and stays valid across the sibling's
// slots (it self-expires once the clock reaches it), so no extra
// bookkeeping is needed for the interleave.
func (c *Core) NextEvent() uint64 {
	a, b := c.threads[0].Core, c.threads[1].Core
	switch {
	case a.Done() && b.Done():
		return 0
	case a.Done():
		return b.NextEvent()
	case b.Done():
		return a.NextEvent()
	}
	ta, tb := a.NextEvent(), b.NextEvent()
	if ta == 0 || tb == 0 {
		return 0
	}
	if tb < ta {
		ta = tb
	}
	return ta
}

// SkipTo implements cpu.FastForwarder. Thread i owns the issue slot on
// cycles n with n%2 == i, so with both threads alive each replays its
// recorded stall on its own slots and ages (Tick) on the sibling's;
// with one thread left every cycle is an issue slot.
func (c *Core) SkipTo(target uint64) {
	if target <= c.cycle {
		return
	}
	a, b := c.threads[0].Core, c.threads[1].Core
	switch {
	case !a.Done() && !b.Done():
		a.FastForward(target, 2, 0)
		b.FastForward(target, 2, 1)
	case !a.Done():
		a.FastForward(target, 1, 0)
	case !b.Done():
		b.FastForward(target, 1, 0)
	}
	c.cycle = target
}

var _ cpu.Core = (*Core)(nil)
var _ cpu.FastForwarder = (*Core)(nil)
