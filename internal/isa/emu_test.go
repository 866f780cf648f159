package isa

import (
	"errors"
	"testing"
)

// testMem is a trivial map-backed Memory for emulator tests.
type testMem map[uint64]byte

func (m testMem) Read(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (m testMem) Write(addr uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		m[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

func loadProgram(m testMem, base uint64, insts []Inst) {
	var buf [InstSize]byte
	for i, in := range insts {
		in.Encode(buf[:])
		for j, b := range buf {
			m[base+uint64(i*InstSize+j)] = b
		}
	}
}

func TestEmulatorBasic(t *testing.T) {
	m := testMem{}
	loadProgram(m, 0x1000, []Inst{
		{Op: OpMovi, Rd: 1, Imm: 10},
		{Op: OpMovi, Rd: 2, Imm: 32},
		{Op: OpAdd, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: OpSt64, Rs1: 0, Rs2: 3, Imm: 0x100},
		{Op: OpLd64, Rd: 4, Rs1: 0, Imm: 0x100},
		{Op: OpHalt},
	})
	e := NewEmulator(0x1000, m)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Reg[3] != 42 || e.Reg[4] != 42 {
		t.Errorf("r3=%d r4=%d, want 42", e.Reg[3], e.Reg[4])
	}
	if e.Executed != 6 {
		t.Errorf("executed %d, want 6", e.Executed)
	}
	if !e.Halted {
		t.Error("not halted")
	}
	if _, err := e.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("step after halt: %v", err)
	}
}

func TestEmulatorR0AlwaysZero(t *testing.T) {
	m := testMem{}
	loadProgram(m, 0, []Inst{
		{Op: OpMovi, Rd: 0, Imm: 99},
		{Op: OpAddi, Rd: 1, Rs1: 0, Imm: 5},
		{Op: OpHalt},
	})
	e := NewEmulator(0, m)
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.Reg[0] != 0 {
		t.Errorf("r0 = %d", e.Reg[0])
	}
	if e.Reg[1] != 5 {
		t.Errorf("r1 = %d, want 5", e.Reg[1])
	}
}

func TestEmulatorBranchLoop(t *testing.T) {
	m := testMem{}
	loadProgram(m, 0, []Inst{
		{Op: OpMovi, Rd: 1, Imm: 5},          // 0x00
		{Op: OpAdd, Rd: 2, Rs1: 2, Rs2: 1},   // 0x08 loop: r2 += r1
		{Op: OpAddi, Rd: 1, Rs1: 1, Imm: -1}, // 0x10
		{Op: OpBne, Rs1: 1, Imm: -16},        // 0x18 -> 0x08
		{Op: OpHalt},
	})
	e := NewEmulator(0, m)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Reg[2] != 15 { // 5+4+3+2+1
		t.Errorf("r2 = %d, want 15", e.Reg[2])
	}
}

func TestEmulatorJalJalr(t *testing.T) {
	m := testMem{}
	loadProgram(m, 0, []Inst{
		{Op: OpJal, Rd: 1, Imm: 24}, // 0x00 call 0x18
		{Op: OpMovi, Rd: 3, Imm: 7}, // 0x08 after return
		{Op: OpHalt},                // 0x10
		{Op: OpMovi, Rd: 2, Imm: 1}, // 0x18 callee
		{Op: OpJalr, Rd: 0, Rs1: 1}, // 0x20 ret
	})
	e := NewEmulator(0, m)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Reg[1] != 8 {
		t.Errorf("link = %d, want 8", e.Reg[1])
	}
	if e.Reg[2] != 1 || e.Reg[3] != 7 {
		t.Errorf("r2=%d r3=%d", e.Reg[2], e.Reg[3])
	}
}

func TestEmulatorCas(t *testing.T) {
	m := testMem{}
	m.Write(0x100, 8, 5)
	loadProgram(m, 0, []Inst{
		{Op: OpMovi, Rd: 1, Imm: 0x100}, // address
		{Op: OpMovi, Rd: 2, Imm: 5},     // compare (matches)
		{Op: OpMovi, Rd: 3, Imm: 9},     // swap-in
		{Op: OpCas, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: OpMovi, Rd: 4, Imm: 123}, // compare (no match)
		{Op: OpMovi, Rd: 5, Imm: 77},
		{Op: OpCas, Rd: 5, Rs1: 1, Rs2: 4},
		{Op: OpHalt},
	})
	e := NewEmulator(0, m)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Reg[3] != 5 {
		t.Errorf("cas old = %d, want 5", e.Reg[3])
	}
	if got := m.Read(0x100, 8); got != 9 {
		t.Errorf("mem = %d, want 9 (swap happened)", got)
	}
	if e.Reg[5] != 9 {
		t.Errorf("second cas old = %d, want 9", e.Reg[5])
	}
	if got := m.Read(0x100, 8); got != 9 {
		t.Errorf("mem changed on failed cas: %d", got)
	}
}

func TestEmulatorBudget(t *testing.T) {
	m := testMem{}
	loadProgram(m, 0, []Inst{
		{Op: OpJal, Rd: 0, Imm: 0}, // infinite self-jump
	})
	e := NewEmulator(0, m)
	if err := e.Run(100); !errors.Is(err, ErrMaxInsts) {
		t.Errorf("want ErrMaxInsts, got %v", err)
	}
}

func TestEmulatorIllegal(t *testing.T) {
	m := testMem{}
	m[0] = 250 // invalid opcode
	e := NewEmulator(0, m)
	if _, err := e.Step(); err == nil {
		t.Error("expected illegal-instruction error")
	}
}

func TestEmulatorHook(t *testing.T) {
	m := testMem{}
	loadProgram(m, 0, []Inst{
		{Op: OpMovi, Rd: 1, Imm: 0x1000},
		{Op: OpLd64, Rd: 1, Rs1: 1, Imm: 16},
		{Op: OpHalt},
	})
	e := NewEmulator(0, m)
	var pcs, addrs []uint64
	e.Hook = func(pc uint64, in Inst, addr uint64) {
		pcs = append(pcs, pc)
		addrs = append(addrs, addr)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != 3 || pcs[0] != 0 || pcs[1] != 8 || pcs[2] != 16 {
		t.Errorf("hook pcs = %v", pcs)
	}
	// The load's address is the one it accessed, although it has since
	// overwritten its base register.
	if len(addrs) != 3 || addrs[0] != 0 || addrs[1] != 0x1010 || addrs[2] != 0 {
		t.Errorf("hook addrs = %#x", addrs)
	}
}
