package core

import (
	"reflect"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/resetcheck"
)

// TestResetMidEpochMatchesFresh stops a run while an epoch is open —
// checkpoints taken, misses pending, a dependent deferred and a
// speculative store buffered — then resets: the core must hold exactly
// the state of a fresh one, and run exactly like it.
func TestResetMidEpochMatchesFresh(t *testing.T) {
	b := asm.NewBuilder(asm.DefaultTextBase)
	b.Movi(5, 0x20000)
	b.Movi(9, 0x30000)
	b.Movi(10, 7)
	b.Ld(isa.OpLd64, 6, 5, 0)   // miss: opens the epoch
	b.Op(isa.OpAdd, 8, 6, 10)   // deferred on r6
	b.St(isa.OpSt64, 10, 9, 64) // speculative store into the SSB
	b.Ld(isa.OpLd64, 7, 9, 0)   // second miss
	b.Br(isa.OpBeq, 7, isa.RegZero, "dead")
	b.Op(isa.OpAdd, 11, 8, 7)
	b.Halt()
	b.Label("dead")
	b.Movi(11, 999)
	b.Halt()
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Core, *cpu.Machine) {
		mach, err := cpu.NewMachine(mem.NewSparse(), testHier(), bpred.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		prog.Load(mach.Mem)
		mach.Mem.Write(0x30000, 8, 1)
		return New(mach, DefaultConfig(), prog.Entry), mach
	}
	used, mach := build()
	stepUntil(t, used, 10_000, func() bool {
		return len(used.ckpts) > 0 && len(used.dq) > 0 && len(used.ssb) > 0 && len(used.pend) > 0
	})
	mach.Reset()
	prog.Load(mach.Mem)
	mach.Mem.Write(0x30000, 8, 1)
	used.Reset(prog.Entry)
	fresh, _ := build()

	// The deferred queue's slots and wakeup links may keep stale entries
	// (a deferral overwrites its slot and links each node before reading
	// it); the frontend has its own test in internal/cpu.
	strip := func(c *Core) Core {
		s := *c
		s.m, s.fe, s.dqSlots, s.waitNext = nil, nil, nil, nil
		return s
	}
	if d := resetcheck.Diff(strip(fresh), strip(used)); d != "" {
		t.Errorf("reset core differs from fresh at %s", d)
	}
	run(t, used, 10_000)
	run(t, fresh, 10_000)
	if !reflect.DeepEqual(used.Stats(), fresh.Stats()) || used.Regs() != fresh.Regs() {
		t.Errorf("reset run differs from fresh:\n%+v\n%+v", *used.Stats(), *fresh.Stats())
	}
}
