package isa

import (
	"encoding/binary"
	"fmt"
)

// Inst is one decoded RK64 instruction.
//
// The encoded form is 8 bytes, little-endian:
//
//	byte 0    opcode
//	byte 1    rd
//	byte 2    rs1
//	byte 3    rs2
//	bytes 4-7 imm (int32)
//
// Field usage by class:
//
//	ALU reg-reg   rd = rs1 op rs2
//	ALU reg-imm   rd = rs1 op imm
//	load          rd = mem[rs1+imm]
//	store         mem[rs1+imm] = rs2
//	branch        if rs1 cmp rs2: pc += imm (imm relative to this inst)
//	jal           rd = pc+8; pc += imm
//	jalr          rd = pc+8; pc = rs1+imm
//	cas           rd also read as the swap-in value; address rs1; compare rs2
type Inst struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Encode writes the 8-byte encoding of the instruction into buf.
func (in Inst) Encode(buf []byte) {
	buf[0] = byte(in.Op)
	buf[1] = in.Rd
	buf[2] = in.Rs1
	buf[3] = in.Rs2
	binary.LittleEndian.PutUint32(buf[4:8], uint32(in.Imm))
}

// EncodeWord returns the instruction encoded as a single 64-bit word.
func (in Inst) EncodeWord() uint64 {
	var b [8]byte
	in.Encode(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Decode parses the 8-byte encoding in buf.
func Decode(buf []byte) (Inst, error) {
	in := Inst{
		Op:  Op(buf[0]),
		Rd:  buf[1],
		Rs1: buf[2],
		Rs2: buf[3],
		Imm: int32(binary.LittleEndian.Uint32(buf[4:8])),
	}
	if !in.Op.Valid() {
		return in, fmt.Errorf("isa: illegal opcode %d", buf[0])
	}
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return in, fmt.Errorf("isa: register out of range in %v", in)
	}
	return in, nil
}

// DecodeWord parses an instruction from its 64-bit word encoding.
func DecodeWord(w uint64) (Inst, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	return Decode(b[:])
}

// srcCount maps each opcode to how many of the ordered source slots
// (rs1, rs2, rd) it reads; every core model calls NumSrcs for every
// instruction it dispatches, so the per-class switches are folded into
// one table lookup.
var srcCount = func() (t [NumOps]uint8) {
	for op := Op(0); int(op) < NumOps; op++ {
		switch op.Class() {
		case ClassALU:
			switch op {
			case OpMovi, OpLui:
			case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti, OpSltui:
				t[op] = 1
			default:
				t[op] = 2
			}
		case ClassLoad, ClassPrefetch:
			t[op] = 1
		case ClassStore, ClassBranch:
			t[op] = 2
		case ClassJump:
			if op == OpJalr {
				t[op] = 1
			}
		case ClassAtomic:
			t[op] = 3
		}
	}
	return t
}()

// NumSrcs returns how many architectural source registers the
// instruction reads (0..3); Src(i) names source i for i < NumSrcs. The
// third source slot is used only by cas (which reads rd as the swap-in
// value) and by stores (data register rs2 is reported alongside the
// address rs1).
func (in Inst) NumSrcs() int {
	if !in.Op.Valid() {
		return 0
	}
	return int(srcCount[in.Op])
}

// Src returns source register i in the ordered slots (rs1, rs2, rd).
// Reading sources by index rather than as an array keeps the dispatch
// paths free of a byte-array spill and reload.
func (in Inst) Src(i int) uint8 {
	switch i {
	case 0:
		return in.Rs1
	case 1:
		return in.Rs2
	}
	return in.Rd
}

// DestReg returns the destination register and whether the instruction
// writes one. Writes to r0 are reported as no destination.
func (in Inst) DestReg() (uint8, bool) {
	var rd uint8
	switch in.Op.Class() {
	case ClassALU, ClassLoad, ClassJump, ClassAtomic:
		rd = in.Rd
	case ClassTx:
		if in.Op != OpTxBegin {
			return 0, false
		}
		rd = in.Rd
	default:
		return 0, false
	}
	if rd == RegZero {
		return 0, false
	}
	return rd, true
}

// BranchTarget returns the target PC of a branch or jal located at pc.
func (in Inst) BranchTarget(pc uint64) uint64 {
	return pc + uint64(int64(in.Imm))
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	r := func(i uint8) string { return fmt.Sprintf("r%d", i) }
	switch in.Op.Class() {
	case ClassNop, ClassHalt, ClassBarrier:
		return in.Op.String()
	case ClassALU:
		switch in.Op {
		case OpMovi, OpLui:
			return fmt.Sprintf("%s %s, %d", in.Op, r(in.Rd), in.Imm)
		case OpAddi, OpAndi, OpOri, OpXori, OpSlli, OpSrli, OpSrai, OpSlti, OpSltui:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rd), r(in.Rs1), in.Imm)
		default:
			return fmt.Sprintf("%s %s, %s, %s", in.Op, r(in.Rd), r(in.Rs1), r(in.Rs2))
		}
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, r(in.Rd), in.Imm, r(in.Rs1))
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, r(in.Rs2), in.Imm, r(in.Rs1))
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, r(in.Rs1), r(in.Rs2), in.Imm)
	case ClassJump:
		if in.Op == OpJal {
			return fmt.Sprintf("jal %s, %d", r(in.Rd), in.Imm)
		}
		return fmt.Sprintf("jalr %s, %d(%s)", r(in.Rd), in.Imm, r(in.Rs1))
	case ClassAtomic:
		return fmt.Sprintf("cas %s, (%s), %s", r(in.Rd), r(in.Rs1), r(in.Rs2))
	case ClassPrefetch:
		return fmt.Sprintf("prefetch %d(%s)", in.Imm, r(in.Rs1))
	case ClassTx:
		if in.Op == OpTxBegin {
			return fmt.Sprintf("txbegin %s, %d", r(in.Rd), in.Imm)
		}
		return "txcommit"
	}
	return fmt.Sprintf("%s ?", in.Op)
}
