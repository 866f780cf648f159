// Package cmp is the chip-multiprocessor substrate: N cores stepped in
// lockstep over one shared L2/DRAM. ROCK is a 16-core CMP of SST cores;
// the paper's area/power argument is that a chip full of small SST cores
// outperforms a chip of big out-of-order cores per thread. This package
// supports both multiprogrammed throughput runs (each core its own
// program and private functional memory, with per-core physical-address
// salting so the shared L2 sees disjoint footprints) and true
// shared-memory runs (one memory, coherence invalidations on).
//
// A Chip is itself a cpu.Core (and cpu.FastForwarder), so the one
// watchdogged run loop, cpu.RunCtx, steps chips exactly as it steps a
// single core: same cycle budget, deadline and livelock detection, same
// sentinel errors.
package cmp

import (
	"fmt"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/mem"
)

// BuildCore constructs a core model over the machine; the harness
// supplies this so the chip is core-model-agnostic. A build error (an
// unknown core kind, say) aborts chip construction instead of crashing.
type BuildCore func(id int, m *cpu.Machine, entry uint64) (cpu.Core, error)

// Chip is one simulated CMP.
type Chip struct {
	Hier     *mem.Hierarchy
	Machines []*cpu.Machine
	Cores    []cpu.Core
	preds    []*bpred.Predictor // the cores' predictor group
	shared   bool
	cycle    uint64
	err      error
	agg      cpu.BaseStats
}

// New builds a chip of len(entries) cores over one fresh hierarchy and
// predictor group, core i starting at entries[i], with no program
// loaded. A shared chip executes every core in one coherent functional
// memory; otherwise each core gets a private memory and its physical
// footprint is salted apart in the shared L2. pcfg.Share decides whether
// cores get private predictor tables or pool one set (see
// bpred.NewGroup).
func New(hcfg mem.HierConfig, pcfg bpred.Config, entries []uint64, shared bool, build BuildCore) (*Chip, error) {
	n := len(entries)
	if n == 0 {
		return nil, fmt.Errorf("cmp: need at least one core")
	}
	hier, err := mem.NewHierarchy(hcfg, n)
	if err != nil {
		return nil, err
	}
	preds := bpred.NewGroup(pcfg, n)
	c := &Chip{Hier: hier, preds: preds, shared: shared}
	var m *mem.Sparse
	for i, e := range entries {
		if m == nil || !shared {
			m = mem.NewSparse()
		}
		mach := &cpu.Machine{Mem: m, Hier: hier, CoreID: i, Pred: preds[i], Coherent: shared}
		cr, err := build(i, mach, e)
		if err != nil {
			return nil, fmt.Errorf("cmp: core %d: %w", i, err)
		}
		c.Machines = append(c.Machines, mach)
		c.Cores = append(c.Cores, cr)
	}
	c.salt()
	return c, nil
}

// NewPrivate builds a multiprogrammed chip: core i runs progs[i] in its
// own functional memory. Coherence is off (no sharing) and each core's
// physical footprint is salted apart in the shared L2.
func NewPrivate(hcfg mem.HierConfig, pcfg bpred.Config, progs []*asm.Program, build BuildCore) (*Chip, error) {
	entries := make([]uint64, len(progs))
	for i, p := range progs {
		entries[i] = p.Entry
	}
	c, err := New(hcfg, pcfg, entries, false, build)
	if err != nil {
		return nil, err
	}
	for i, p := range progs {
		p.Load(c.Machines[i].Mem)
	}
	return c, nil
}

// NewShared builds a shared-memory chip: all cores execute in one
// functional memory (prog loaded once), starting at entries[i], with
// coherence invalidations enabled.
func NewShared(hcfg mem.HierConfig, pcfg bpred.Config, prog *asm.Program, entries []uint64, build BuildCore) (*Chip, error) {
	c, err := New(hcfg, pcfg, entries, true, build)
	if err != nil {
		return nil, err
	}
	prog.Load(c.Machines[0].Mem)
	return c, nil
}

// salt gives each core of a private chip its own physical-address salt.
func (c *Chip) salt() {
	if c.shared {
		return
	}
	for i := range c.Machines {
		c.Hier.SetAddressSalt(i, uint64(i)<<33)
	}
}

// Reset returns the chip to its freshly built state with core i
// executing from entries[i], without reallocating: the hierarchy,
// functional memories and predictor group are cleared in place, each
// shared structure once, private chips re-salted, and every core reset
// on top (each core model must implement cpu.Resetter). The caller
// loads programs afterwards.
func (c *Chip) Reset(entries []uint64) {
	c.Hier.Reset()
	for i, m := range c.Machines {
		if i == 0 || !c.shared {
			m.Mem.Reset()
		}
	}
	bpred.ResetGroup(c.preds)
	c.salt()
	for i, cr := range c.Cores {
		cr.(cpu.Resetter).Reset(entries[i])
	}
	*c = Chip{Hier: c.Hier, Machines: c.Machines, Cores: c.Cores, preds: c.preds, shared: c.shared}
}

// Step advances the chip one lockstep cycle: every core that has not
// halted steps once. A core error stops the cycle and is reported by Err.
func (c *Chip) Step() {
	for i, core := range c.Cores {
		if core.Done() {
			continue
		}
		core.Step()
		if err := core.Err(); err != nil {
			c.err = fmt.Errorf("cmp: core %d: %w", i, err)
			return
		}
	}
	c.cycle++
}

// Cycle returns the chip cycles elapsed (the lockstep count).
func (c *Chip) Cycle() uint64 { return c.cycle }

// Done reports whether every core has halted.
func (c *Chip) Done() bool {
	for _, core := range c.Cores {
		if !core.Done() {
			return false
		}
	}
	return true
}

// Retired sums retired instructions across cores.
func (c *Chip) Retired() uint64 {
	var t uint64
	for _, core := range c.Cores {
		t += core.Retired()
	}
	return t
}

// Err returns the first fatal core error.
func (c *Chip) Err() error { return c.err }

// Base returns the chip's aggregate statistics block: every core's
// counters summed, with Cycles the lockstep count. Each core's own block
// (Cores[i].Base()) keeps the exact per-core cycle-accounting stack.
func (c *Chip) Base() *cpu.BaseStats {
	c.agg = cpu.BaseStats{}
	for _, core := range c.Cores {
		c.agg.Add(core.Base())
	}
	c.agg.Cycles = c.cycle
	return &c.agg
}

// Throughput returns aggregate instructions per chip cycle.
func (c *Chip) Throughput() float64 {
	if c.cycle == 0 {
		return 0
	}
	return float64(c.Retired()) / float64(c.cycle)
}

// NextEvent implements cpu.FastForwarder: the lockstep clock can jump
// only when every alive core proves it is in a pure stall, to the
// earliest cycle any of them can change. With no core executing there
// are no stores, so no coherence traffic or shared-level contention can
// arise mid-jump.
func (c *Chip) NextEvent() uint64 {
	var target uint64
	for _, core := range c.Cores {
		if core.Done() {
			continue
		}
		ff, ok := core.(cpu.FastForwarder)
		if !ok {
			return 0
		}
		t := ff.NextEvent()
		if t <= c.cycle {
			return 0
		}
		if target == 0 || t < target {
			target = t
		}
	}
	return target
}

// SkipTo implements cpu.FastForwarder: every alive core bulk-credits the
// jump, keeping all statistics bit-identical to naive lockstep.
func (c *Chip) SkipTo(target uint64) {
	if target <= c.cycle {
		return
	}
	for _, core := range c.Cores {
		if !core.Done() {
			core.(cpu.FastForwarder).SkipTo(target)
		}
	}
	c.cycle = target
}

var _ cpu.FastForwarder = (*Chip)(nil)
