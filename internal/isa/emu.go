package isa

import (
	"errors"
	"fmt"
)

// Memory is the functional byte-addressable memory interface the
// emulator (and the core models) execute against. Reads of unwritten
// locations return zero. Values are little-endian.
type Memory interface {
	// Read returns the unsigned value of size bytes at addr.
	Read(addr uint64, size int) uint64
	// Write stores the low size bytes of val at addr.
	Write(addr uint64, size int, val uint64)
}

// ErrHalted is returned by Emulator.Step once the program executes halt.
var ErrHalted = errors.New("isa: halted")

// ErrMaxInsts is returned by Emulator.Run when the instruction budget is
// exhausted before the program halts.
var ErrMaxInsts = errors.New("isa: instruction budget exhausted")

// Emulator is the pure functional RK64 model: it defines architectural
// truth for every core implementation in this repository. It has no
// notion of time; each Step retires exactly one instruction.
type Emulator struct {
	Reg [NumRegs]int64
	PC  uint64
	Mem Memory

	// Executed counts retired instructions (including nops).
	Executed uint64
	// Halted is set once halt retires.
	Halted bool

	// Hook, if non-nil, is invoked after each retired instruction with
	// the PC it executed at, the instruction and the data address a
	// load, store or atomic accessed (0 for every other op). Used by
	// cmd/rkrun to characterize a run.
	Hook func(pc uint64, in Inst, addr uint64)

	fetchBuf [InstSize]byte
}

// NewEmulator returns an emulator with the given entry point and memory.
func NewEmulator(entry uint64, m Memory) *Emulator {
	return &Emulator{PC: entry, Mem: m}
}

// fetch decodes the instruction at the current PC.
func (e *Emulator) fetch() (Inst, error) {
	w := e.Mem.Read(e.PC, InstSize)
	in, err := DecodeWord(w)
	if err != nil {
		return in, fmt.Errorf("pc=%#x: %w", e.PC, err)
	}
	return in, nil
}

// Step executes one instruction. It returns the instruction executed.
// After halt it returns ErrHalted.
func (e *Emulator) Step() (Inst, error) {
	if e.Halted {
		return Inst{}, ErrHalted
	}
	in, err := e.fetch()
	if err != nil {
		return in, err
	}
	pc := e.PC
	next := pc + InstSize
	var addr uint64

	rd := func(i uint8) int64 {
		if i == RegZero {
			return 0
		}
		return e.Reg[i]
	}
	wr := func(i uint8, v int64) {
		if i != RegZero {
			e.Reg[i] = v
		}
	}

	switch in.Op.Class() {
	case ClassNop, ClassBarrier:
	case ClassHalt:
		e.Halted = true
	case ClassALU:
		wr(in.Rd, ALUResult(in, rd(in.Rs1), rd(in.Rs2)))
	case ClassLoad:
		addr = uint64(rd(in.Rs1) + int64(in.Imm))
		raw := e.Mem.Read(addr, in.Op.MemWidth())
		wr(in.Rd, ExtendLoad(in.Op, raw))
	case ClassStore:
		addr = uint64(rd(in.Rs1) + int64(in.Imm))
		e.Mem.Write(addr, in.Op.MemWidth(), uint64(rd(in.Rs2)))
	case ClassBranch:
		if BranchTaken(in.Op, rd(in.Rs1), rd(in.Rs2)) {
			next = in.BranchTarget(pc)
		}
	case ClassJump:
		link := int64(pc + InstSize)
		if in.Op == OpJal {
			next = in.BranchTarget(pc)
		} else {
			next = uint64(rd(in.Rs1) + int64(in.Imm))
		}
		wr(in.Rd, link)
	case ClassAtomic:
		addr = uint64(rd(in.Rs1))
		old := int64(e.Mem.Read(addr, 8))
		if old == rd(in.Rs2) {
			e.Mem.Write(addr, 8, uint64(rd(in.Rd)))
		}
		wr(in.Rd, old)
	case ClassPrefetch:
		// No architectural effect.
	case ClassTx:
		// The single-stepped golden model is trivially atomic:
		// transactions always succeed.
		if in.Op == OpTxBegin {
			wr(in.Rd, 0)
		}
	}

	e.PC = next
	e.Executed++
	if e.Hook != nil {
		e.Hook(pc, in, addr)
	}
	if e.Halted {
		return in, ErrHalted
	}
	return in, nil
}

// Run executes until halt or until maxInsts instructions have retired.
// It returns nil on a clean halt and ErrMaxInsts if the budget ran out.
func (e *Emulator) Run(maxInsts uint64) error {
	for e.Executed < maxInsts {
		if _, err := e.Step(); err != nil {
			if errors.Is(err, ErrHalted) {
				return nil
			}
			return err
		}
	}
	if e.Halted {
		return nil
	}
	return ErrMaxInsts
}
