// Package isa defines RK64, the 64-bit RISC instruction set executed by
// every core model in this repository (in-order, out-of-order, and SST).
//
// RK64 is deliberately SPARC/RISC-V-flavoured: 32 integer registers with
// r0 hardwired to zero, fixed-size 8-byte instruction encoding,
// compare-and-branch conditional branches (no condition codes), and a
// compare-and-swap primitive for atomics. The package also provides the
// architectural semantics (ALU evaluation, branch resolution) shared by
// all core models and a pure functional Emulator that serves as the
// golden model for correctness testing.
package isa

import "fmt"

// Op identifies an RK64 operation.
type Op uint8

// RK64 opcodes.
const (
	OpNop Op = iota
	OpHalt

	// Register-register ALU operations: rd = rs1 op rs2.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu
	OpMul
	OpMulh
	OpDiv
	OpDivu
	OpRem
	OpRemu

	// Register-immediate ALU operations: rd = rs1 op sext(imm).
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlli
	OpSrli
	OpSrai
	OpSlti
	OpSltui

	// Constant formation.
	OpMovi // rd = sext64(imm32)
	OpLui  // rd = int64(imm32) << 32

	// Loads: rd = mem[rs1 + sext(imm)], sign- or zero-extended.
	OpLd8
	OpLd16
	OpLd32
	OpLd64
	OpLdu8
	OpLdu16
	OpLdu32

	// Stores: mem[rs1 + sext(imm)] = rs2.
	OpSt8
	OpSt16
	OpSt32
	OpSt64

	// Conditional branches: if rs1 cmp rs2 then pc += sext(imm).
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu

	// Unconditional control transfer.
	OpJal  // rd = pc + InstSize; pc += sext(imm)
	OpJalr // rd = pc + InstSize; pc = rs1 + sext(imm)

	// Atomic compare-and-swap (SPARC casx flavour):
	//   old = mem64[rs1]; if old == rs2 { mem64[rs1] = rd }; rd = old
	OpCas

	OpMembar   // memory barrier
	OpPrefetch // software prefetch of line at rs1 + sext(imm)

	// Hardware transactional memory (ROCK's checkpoint-based HTM):
	//   txbegin rd, handler: enter a transaction; rd = 0. On abort,
	//   architectural state rolls back to the txbegin, control moves to
	//   handler (pc-relative imm) and rd holds the abort code.
	//   txcommit: atomically publish the transaction's stores.
	// Cores without transactional hardware (and the functional golden
	// model, which is single-stepped and thus trivially atomic) execute
	// them as always-succeeding no-ops.
	OpTxBegin
	OpTxCommit

	numOps
)

// NumOps is the number of defined opcodes; useful for table sizing.
const NumOps = int(numOps)

// InstSize is the size in bytes of one encoded RK64 instruction.
const InstSize = 8

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

// Conventional register roles used by the assembler and code generators.
const (
	RegZero = 0 // always reads as zero
	RegRA   = 1 // return address (link register for jal/jalr)
	RegSP   = 2 // stack pointer by convention
)

type opInfo struct {
	name    string
	class   Class
	latency int // execution latency in cycles (1 = single cycle)
}

// Class categorizes an opcode for pipeline control.
type Class uint8

// Opcode classes.
const (
	ClassALU Class = iota
	ClassLoad
	ClassStore
	ClassBranch // conditional branch
	ClassJump   // jal/jalr
	ClassAtomic
	ClassBarrier
	ClassPrefetch
	ClassNop
	ClassHalt
	ClassTx
)

// Default execution latencies, in cycles. Loads/stores are subject to the
// memory hierarchy on top of a 1-cycle pipeline occupancy.
const (
	LatMul = 4
	LatDiv = 20
)

var opTable = [NumOps]opInfo{
	OpNop:      {"nop", ClassNop, 1},
	OpHalt:     {"halt", ClassHalt, 1},
	OpAdd:      {"add", ClassALU, 1},
	OpSub:      {"sub", ClassALU, 1},
	OpAnd:      {"and", ClassALU, 1},
	OpOr:       {"or", ClassALU, 1},
	OpXor:      {"xor", ClassALU, 1},
	OpSll:      {"sll", ClassALU, 1},
	OpSrl:      {"srl", ClassALU, 1},
	OpSra:      {"sra", ClassALU, 1},
	OpSlt:      {"slt", ClassALU, 1},
	OpSltu:     {"sltu", ClassALU, 1},
	OpMul:      {"mul", ClassALU, LatMul},
	OpMulh:     {"mulh", ClassALU, LatMul},
	OpDiv:      {"div", ClassALU, LatDiv},
	OpDivu:     {"divu", ClassALU, LatDiv},
	OpRem:      {"rem", ClassALU, LatDiv},
	OpRemu:     {"remu", ClassALU, LatDiv},
	OpAddi:     {"addi", ClassALU, 1},
	OpAndi:     {"andi", ClassALU, 1},
	OpOri:      {"ori", ClassALU, 1},
	OpXori:     {"xori", ClassALU, 1},
	OpSlli:     {"slli", ClassALU, 1},
	OpSrli:     {"srli", ClassALU, 1},
	OpSrai:     {"srai", ClassALU, 1},
	OpSlti:     {"slti", ClassALU, 1},
	OpSltui:    {"sltui", ClassALU, 1},
	OpMovi:     {"movi", ClassALU, 1},
	OpLui:      {"lui", ClassALU, 1},
	OpLd8:      {"ld8", ClassLoad, 1},
	OpLd16:     {"ld16", ClassLoad, 1},
	OpLd32:     {"ld32", ClassLoad, 1},
	OpLd64:     {"ld64", ClassLoad, 1},
	OpLdu8:     {"ldu8", ClassLoad, 1},
	OpLdu16:    {"ldu16", ClassLoad, 1},
	OpLdu32:    {"ldu32", ClassLoad, 1},
	OpSt8:      {"st8", ClassStore, 1},
	OpSt16:     {"st16", ClassStore, 1},
	OpSt32:     {"st32", ClassStore, 1},
	OpSt64:     {"st64", ClassStore, 1},
	OpBeq:      {"beq", ClassBranch, 1},
	OpBne:      {"bne", ClassBranch, 1},
	OpBlt:      {"blt", ClassBranch, 1},
	OpBge:      {"bge", ClassBranch, 1},
	OpBltu:     {"bltu", ClassBranch, 1},
	OpBgeu:     {"bgeu", ClassBranch, 1},
	OpJal:      {"jal", ClassJump, 1},
	OpJalr:     {"jalr", ClassJump, 1},
	OpCas:      {"cas", ClassAtomic, 1},
	OpMembar:   {"membar", ClassBarrier, 1},
	OpPrefetch: {"prefetch", ClassPrefetch, 1},
	OpTxBegin:  {"txbegin", ClassTx, 1},
	OpTxCommit: {"txcommit", ClassTx, 1},
}

// String returns the assembler mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < NumOps {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined RK64 opcode.
func (op Op) Valid() bool { return int(op) < NumOps }

// Class returns the pipeline class of the opcode.
func (op Op) Class() Class {
	if !op.Valid() {
		return ClassNop
	}
	return opTable[op].class
}

// Latency returns the nominal execution latency of the opcode in cycles.
// Memory operations additionally pay memory-hierarchy latency.
func (op Op) Latency() int {
	if !op.Valid() {
		return 1
	}
	return opTable[op].latency
}

// IsLoad reports whether the opcode reads data memory into a register.
func (op Op) IsLoad() bool { return op.Class() == ClassLoad }

// IsStore reports whether the opcode writes data memory.
func (op Op) IsStore() bool { return op.Class() == ClassStore }

// IsMem reports whether the opcode accesses data memory (including
// atomics and prefetches).
func (op Op) IsMem() bool {
	switch op.Class() {
	case ClassLoad, ClassStore, ClassAtomic, ClassPrefetch:
		return true
	}
	return false
}

// IsLongLatency reports whether the opcode is a multi-cycle arithmetic
// operation that checkpoint-based cores may defer like a cache miss.
func (op Op) IsLongLatency() bool { return op.Class() == ClassALU && op.Latency() > 1 }

// MemWidth returns the access width in bytes for memory operations, or 0.
func (op Op) MemWidth() int {
	switch op {
	case OpLd8, OpLdu8, OpSt8:
		return 1
	case OpLd16, OpLdu16, OpSt16:
		return 2
	case OpLd32, OpLdu32, OpSt32:
		return 4
	case OpLd64, OpSt64, OpCas:
		return 8
	}
	return 0
}

// opsByName maps mnemonic to opcode; built once for the assembler.
var opsByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := Op(0); int(op) < NumOps; op++ {
		m[opTable[op].name] = op
	}
	return m
}()

// OpByName returns the opcode with the given assembler mnemonic.
func OpByName(name string) (Op, bool) {
	op, ok := opsByName[name]
	return op, ok
}
