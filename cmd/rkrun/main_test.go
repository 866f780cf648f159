package main

import (
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// runMix executes src on the emulator with the counting hook rkrun
// installs and returns the emulator and its mix.
func runMix(t *testing.T, src string) (*isa.Emulator, *mix) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewSparse()
	prog.Load(m)
	emu := isa.NewEmulator(prog.Entry, m)
	c := newMix()
	emu.Hook = func(_ uint64, in isa.Inst, addr uint64) { c.count(in, addr) }
	if err := emu.Run(10000); err != nil {
		t.Fatal(err)
	}
	return emu, c
}

func TestMixCountsLoop(t *testing.T) {
	emu, c := runMix(t, `
		.org 0x10000
		movi r1, 0x20000
		movi r2, 10
	loop:	ld64 r3, (r1)
		add  r4, r4, r3
		st64 r4, 8(r1)
		div  r5, r4, r2
		addi r1, r1, 64
		addi r2, r2, -1
		bne  r2, zero, loop
		halt
	`)
	if c.insts != emu.Executed {
		t.Errorf("insts = %d, want %d", c.insts, emu.Executed)
	}
	if pct(c.loads, c.insts) <= 0 || pct(c.loads, 0) != 0 {
		t.Errorf("pct = %v, %v of no instructions", pct(c.loads, c.insts), pct(c.loads, 0))
	}
	if c.loads != 10 || c.stores != 10 || c.branches != 10 || c.longOps != 10 {
		t.Errorf("loads/stores/branches/long ops = %d/%d/%d/%d, want 10 each",
			c.loads, c.stores, c.branches, c.longOps)
	}
	// 10 iterations at 64B stride touch 10 distinct lines (the st64 at
	// +8 stays within the load's line).
	if len(c.lines) != 10 {
		t.Errorf("footprint = %d lines, want 10", len(c.lines))
	}
}

// A load that overwrites its own base register is counted at the
// address it accessed, not at the address the loaded value points to.
func TestMixFootprintLoadOverwritesBase(t *testing.T) {
	_, c := runMix(t, `
		.org 0x10000
		movi r1, 0x200000
		ld64 r5, (r1)
		ld64 r1, (r1)
		halt
		.data 0x200000
		.quad 0x900000
	`)
	if c.loads != 2 || len(c.lines) != 1 {
		t.Errorf("loads = %d, footprint = %d lines; want 2 loads in 1 line", c.loads, len(c.lines))
	}
}
