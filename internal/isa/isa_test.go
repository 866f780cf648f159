package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOpMetadata(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
		if op.Latency() < 1 {
			t.Errorf("op %v latency %d < 1", op, op.Latency())
		}
		if got, ok := OpByName(op.String()); !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName accepted bogus mnemonic")
	}
	if Op(200).Valid() {
		t.Error("Op(200) should be invalid")
	}
}

func TestOpClassPredicates(t *testing.T) {
	cases := []struct {
		op                       Op
		load, store, branch, jmp bool
	}{
		{OpLd64, true, false, false, false},
		{OpLdu8, true, false, false, false},
		{OpSt32, false, true, false, false},
		{OpBeq, false, false, true, false},
		{OpJal, false, false, false, true},
		{OpJalr, false, false, false, true},
		{OpAdd, false, false, false, false},
	}
	for _, c := range cases {
		if c.op.IsLoad() != c.load || c.op.IsStore() != c.store ||
			(c.op.Class() == ClassBranch) != c.branch || (c.op.Class() == ClassJump) != c.jmp {
			t.Errorf("%v predicates wrong", c.op)
		}
	}
	if !OpDiv.IsLongLatency() || OpAdd.IsLongLatency() {
		t.Error("long-latency classification wrong")
	}
	if !OpCas.IsMem() || !OpPrefetch.IsMem() || OpAdd.IsMem() {
		t.Error("IsMem classification wrong")
	}
}

func TestMemWidth(t *testing.T) {
	widths := map[Op]int{
		OpLd8: 1, OpLdu8: 1, OpSt8: 1,
		OpLd16: 2, OpLdu16: 2, OpSt16: 2,
		OpLd32: 4, OpLdu32: 4, OpSt32: 4,
		OpLd64: 8, OpSt64: 8, OpCas: 8,
		OpAdd: 0,
	}
	for op, w := range widths {
		if op.MemWidth() != w {
			t.Errorf("%v width = %d, want %d", op, op.MemWidth(), w)
		}
	}
}

// TestEncodeDecodeRoundTrip is the property test: any well-formed
// instruction survives encode/decode unchanged.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(op uint8, rd, rs1, rs2 uint8, imm int32) bool {
		in := Inst{
			Op:  Op(op % uint8(NumOps)),
			Rd:  rd % NumRegs,
			Rs1: rs1 % NumRegs,
			Rs2: rs2 % NumRegs,
			Imm: imm,
		}
		var buf [InstSize]byte
		in.Encode(buf[:])
		out, err := Decode(buf[:])
		if err != nil {
			return false
		}
		if out != in {
			return false
		}
		w, err := DecodeWord(in.EncodeWord())
		return err == nil && w == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsIllegal(t *testing.T) {
	var buf [InstSize]byte
	buf[0] = byte(NumOps) // first invalid opcode
	if _, err := Decode(buf[:]); err == nil {
		t.Error("decode accepted illegal opcode")
	}
	buf[0] = byte(OpAdd)
	buf[1] = NumRegs // register out of range
	if _, err := Decode(buf[:]); err == nil {
		t.Error("decode accepted out-of-range register")
	}
}

func TestSrcRegsAndDest(t *testing.T) {
	cases := []struct {
		in    Inst
		nsrc  int
		hasRd bool
	}{
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, 2, true},
		{Inst{Op: OpAddi, Rd: 1, Rs1: 2}, 1, true},
		{Inst{Op: OpMovi, Rd: 1}, 0, true},
		{Inst{Op: OpLd64, Rd: 1, Rs1: 2}, 1, true},
		{Inst{Op: OpSt64, Rs1: 2, Rs2: 3}, 2, false},
		{Inst{Op: OpBeq, Rs1: 2, Rs2: 3}, 2, false},
		{Inst{Op: OpJal, Rd: 1}, 0, true},
		{Inst{Op: OpJalr, Rd: 1, Rs1: 5}, 1, true},
		{Inst{Op: OpCas, Rd: 1, Rs1: 2, Rs2: 3}, 3, true},
		{Inst{Op: OpNop}, 0, false},
		{Inst{Op: OpAdd, Rd: 0, Rs1: 1, Rs2: 2}, 2, false}, // writes r0
		{Inst{Op: OpPrefetch, Rs1: 4}, 1, false},
	}
	for _, c := range cases {
		if n := c.in.NumSrcs(); n != c.nsrc {
			t.Errorf("%v: nsrc = %d, want %d", c.in, n, c.nsrc)
		}
		if got := [3]uint8{c.in.Src(0), c.in.Src(1), c.in.Src(2)}; got != [3]uint8{c.in.Rs1, c.in.Rs2, c.in.Rd} {
			t.Errorf("%v: source slots = %v, want rs1, rs2, rd", c.in, got)
		}
		_, has := c.in.DestReg()
		if has != c.hasRd {
			t.Errorf("%v: hasRd = %v, want %v", c.in, has, c.hasRd)
		}
	}
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{OpAdd, 2, 3, 5},
		{OpSub, 2, 3, -1},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpSll, 1, 8, 256},
		{OpSll, 1, 64, 1}, // shift amount masked to 6 bits
		{OpSrl, -8, 1, int64(uint64(0xfffffffffffffff8) >> 1)},
		{OpSra, -8, 1, -4},
		{OpSlt, -1, 0, 1},
		{OpSlt, 1, 0, 0},
		{OpSltu, -1, 0, 0}, // unsigned: -1 is max
		{OpMul, 7, 6, 42},
		{OpDiv, 7, 2, 3},
		{OpDiv, -7, 2, -3},
		{OpDiv, 7, 0, -1},               // div by zero
		{OpDiv, -1 << 63, -1, -1 << 63}, // overflow
		{OpRem, 7, 2, 1},
		{OpRem, 7, 0, 7},
		{OpRem, -1 << 63, -1, 0},
		{OpDivu, -1, 2, int64(^uint64(0) / 2)},
		{OpRemu, 10, 0, 10},
	}
	for _, c := range cases {
		got := ALUResult(Inst{Op: c.op}, c.a, c.b)
		if got != c.want {
			t.Errorf("%v(%d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestALUImmediates(t *testing.T) {
	in := Inst{Op: OpAddi, Imm: -5}
	if got := ALUResult(in, 3, 999); got != -2 {
		t.Errorf("addi = %d, want -2", got)
	}
	in = Inst{Op: OpMovi, Imm: -123}
	if got := ALUResult(in, 0, 0); got != -123 {
		t.Errorf("movi = %d", got)
	}
	in = Inst{Op: OpLui, Imm: 0x1234}
	if got := ALUResult(in, 0, 0); got != 0x1234<<32 {
		t.Errorf("lui = %#x", got)
	}
	in = Inst{Op: OpSlli, Imm: 4}
	if got := ALUResult(in, 3, 0); got != 48 {
		t.Errorf("slli = %d", got)
	}
}

func TestMulh(t *testing.T) {
	// Cross-check mulh against big-integer-free reference using 32-bit
	// decomposition on random values.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := r.Int63()-r.Int63(), r.Int63()-r.Int63()
		got := ALUResult(Inst{Op: OpMulh}, a, b)
		want := mulhRef(a, b)
		if got != want {
			t.Fatalf("mulh(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

// mulhRef computes the signed high 64 bits via 4-way decomposition.
func mulhRef(a, b int64) int64 {
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
	}
	if b < 0 {
		ub = uint64(-b)
	}
	hi, lo := mul128(ua, ub)
	if neg {
		// two's complement of the 128-bit product
		lo = ^lo + 1
		hi = ^hi
		if lo == 0 {
			hi++
		}
	}
	return int64(hi)
}

func mul128(a, b uint64) (hi, lo uint64) {
	a0, a1 := a&0xffffffff, a>>32
	b0, b1 := b&0xffffffff, b>>32
	t := a0 * b0
	lo = t & 0xffffffff
	c := t >> 32
	t = a1*b0 + c
	s0 := t & 0xffffffff
	s1 := t >> 32
	t = a0*b1 + s0
	lo |= (t & 0xffffffff) << 32
	hi = a1*b1 + s1 + t>>32
	return hi, lo
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want bool
	}{
		{OpBeq, 1, 1, true}, {OpBeq, 1, 2, false},
		{OpBne, 1, 2, true}, {OpBne, 2, 2, false},
		{OpBlt, -1, 0, true}, {OpBlt, 0, 0, false},
		{OpBge, 0, 0, true}, {OpBge, -1, 0, false},
		{OpBltu, 1, 2, true}, {OpBltu, -1, 2, false},
		{OpBgeu, -1, 2, true},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d) = %v", c.op, c.a, c.b, got)
		}
	}
}

func TestExtendLoad(t *testing.T) {
	cases := []struct {
		op   Op
		raw  uint64
		want int64
	}{
		{OpLd8, 0xff, -1},
		{OpLdu8, 0xff, 255},
		{OpLd16, 0x8000, -32768},
		{OpLdu16, 0x8000, 32768},
		{OpLd32, 0xffffffff, -1},
		{OpLdu32, 0xffffffff, 0xffffffff},
		{OpLd64, 0xffffffffffffffff, -1},
	}
	for _, c := range cases {
		if got := ExtendLoad(c.op, c.raw); got != c.want {
			t.Errorf("%v(%#x) = %d, want %d", c.op, c.raw, got, c.want)
		}
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: OpLd64, Rd: 5, Rs1: 6, Imm: 16}, "ld64 r5, 16(r6)"},
		{Inst{Op: OpSt8, Rs1: 6, Rs2: 7, Imm: -2}, "st8 r7, -2(r6)"},
		{Inst{Op: OpBeq, Rs1: 1, Rs2: 0, Imm: 64}, "beq r1, r0, 64"},
		{Inst{Op: OpJal, Rd: 1, Imm: 8}, "jal r1, 8"},
		{Inst{Op: OpHalt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestBranchTarget(t *testing.T) {
	in := Inst{Op: OpBeq, Imm: -16}
	if got := in.BranchTarget(0x1000); got != 0xff0 {
		t.Errorf("target = %#x", got)
	}
}
