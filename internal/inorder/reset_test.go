package inorder

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

// TestResetWithLoadsInFlightMatchesFresh stops a run with loads and a
// store in flight, then resets: the core must hold exactly the state of
// a fresh one, and run exactly like it.
func TestResetWithLoadsInFlightMatchesFresh(t *testing.T) {
	b := asm.NewBuilder(asm.DefaultTextBase)
	b.Movi(1, 0x20000)
	b.Movi(2, 0x30000)
	b.St(isa.OpSt64, 2, 2, 8)
	b.Ld(isa.OpLd64, 3, 1, 0)
	b.Ld(isa.OpLd64, 4, 2, 0)
	b.Op(isa.OpAdd, 5, 3, 4)
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
		return New(mach, DefaultConfig(), prog.Entry), mach
	}
	used, mach := build()
	for len(used.loadsInFlight) < 2 || len(used.storeBuf) == 0 {
		if used.Done() || used.Cycle() > 10_000 {
			t.Fatalf("no loads in flight by cycle %d", used.Cycle())
		}
		used.Step()
	}
	mach.Reset()
	prog.Load(mach.Mem)
	used.Reset(prog.Entry)
	fresh, _ := build()

	// The frontend has its own test in internal/cpu.
	strip := func(c *Core) Core {
		s := *c
		s.m, s.fe = nil, nil
		return s
	}
	if d := resetcheck.Diff(strip(fresh), strip(used)); d != "" {
		t.Errorf("reset core differs from fresh at %s", d)
	}
	for _, c := range []*Core{used, fresh} {
		if err := cpu.Run(c, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(used.Stats(), fresh.Stats()) || used.Regs() != fresh.Regs() {
		t.Errorf("reset run differs from fresh:\n%+v\n%+v", *used.Stats(), *fresh.Stats())
	}
}
