package asm

import (
	"strings"
	"testing"

	"rocksim/internal/isa"
)

func decodeAll(t *testing.T, p *Program) []isa.Inst {
	t.Helper()
	for _, seg := range p.Segments {
		if seg.Addr != DefaultTextBase {
			continue
		}
		var out []isa.Inst
		for off := 0; off+isa.InstSize <= len(seg.Data); off += isa.InstSize {
			in, err := isa.Decode(seg.Data[off:])
			if err != nil {
				t.Fatalf("decode at %d: %v", off, err)
			}
			out = append(out, in)
		}
		return out
	}
	t.Fatal("no text segment")
	return nil
}

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
		movi r1, 42
		addi r2, r1, -1
		add  r3, r1, r2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	want := []isa.Inst{
		{Op: isa.OpMovi, Rd: 1, Imm: 42},
		{Op: isa.OpAddi, Rd: 2, Rs1: 1, Imm: -1},
		{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2},
		{Op: isa.OpHalt},
	}
	if len(insts) != len(want) {
		t.Fatalf("got %d insts, want %d", len(insts), len(want))
	}
	for i := range want {
		if insts[i] != want[i] {
			t.Errorf("inst %d = %v, want %v", i, insts[i], want[i])
		}
	}
	if p.Entry != DefaultTextBase {
		t.Errorf("entry = %#x", p.Entry)
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p, err := Assemble(`
	start:	movi r1, 3
	loop:	addi r1, r1, -1
		bne  r1, zero, loop
		beq  r1, zero, done
		nop
	done:	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	// bne at index 2, target loop at index 1: offset -8.
	if insts[2].Imm != -8 {
		t.Errorf("bne imm = %d, want -8", insts[2].Imm)
	}
	// beq at index 3, target done at index 5: offset +16.
	if insts[3].Imm != 16 {
		t.Errorf("beq imm = %d, want 16", insts[3].Imm)
	}
}

func TestAssembleMemOperands(t *testing.T) {
	p, err := Assemble(`
		ld64  r1, 16(r2)
		ld8   r3, (r4)
		st32  r5, -8(r6)
		prefetch 128(r7)
		cas   r1, (r2), r3
		jalr  r1, 4(r5)
	`)
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0] != (isa.Inst{Op: isa.OpLd64, Rd: 1, Rs1: 2, Imm: 16}) {
		t.Errorf("ld64 = %v", insts[0])
	}
	if insts[1] != (isa.Inst{Op: isa.OpLd8, Rd: 3, Rs1: 4}) {
		t.Errorf("ld8 = %v", insts[1])
	}
	if insts[2] != (isa.Inst{Op: isa.OpSt32, Rs1: 6, Rs2: 5, Imm: -8}) {
		t.Errorf("st32 = %v", insts[2])
	}
	if insts[3] != (isa.Inst{Op: isa.OpPrefetch, Rs1: 7, Imm: 128}) {
		t.Errorf("prefetch = %v", insts[3])
	}
	if insts[4] != (isa.Inst{Op: isa.OpCas, Rd: 1, Rs1: 2, Rs2: 3}) {
		t.Errorf("cas = %v", insts[4])
	}
	if insts[5] != (isa.Inst{Op: isa.OpJalr, Rd: 1, Rs1: 5, Imm: 4}) {
		t.Errorf("jalr = %v", insts[5])
	}
}

func TestAssemblePseudo(t *testing.T) {
	p, err := Assemble(`
	f:	ret
	main:	li  r1, -7
		mv  r2, r1
		call f
		j   main
	`)
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0] != (isa.Inst{Op: isa.OpJalr, Rd: 0, Rs1: isa.RegRA}) {
		t.Errorf("ret = %v", insts[0])
	}
	if insts[1] != (isa.Inst{Op: isa.OpMovi, Rd: 1, Imm: -7}) {
		t.Errorf("li = %v", insts[1])
	}
	if insts[2] != (isa.Inst{Op: isa.OpAddi, Rd: 2, Rs1: 1}) {
		t.Errorf("mv = %v", insts[2])
	}
	if insts[3].Op != isa.OpJal || insts[3].Rd != isa.RegRA {
		t.Errorf("call = %v", insts[3])
	}
	if insts[4].Op != isa.OpJal || insts[4].Rd != 0 || insts[4].Imm != -24 {
		t.Errorf("j = %v", insts[4])
	}
}

func TestAssembleDataDirectives(t *testing.T) {
	p, err := Assemble(`
		.org 0x10000
		movi r1, tbl
		halt
		.data 0x20000
	tbl:	.quad 0x1122334455667788
		.word 0xaabbccdd
		.half 0x1234
		.byte 0x7f
		.zero 3
		.asciz "hi"
	`)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	for _, s := range p.Segments {
		if s.Addr == 0x20000 {
			data = s.Data
		}
	}
	if data == nil {
		t.Fatal("no data segment")
	}
	want := []byte{
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
		0xdd, 0xcc, 0xbb, 0xaa,
		0x34, 0x12,
		0x7f,
		0, 0, 0,
		'h', 'i', 0,
	}
	if len(data) != len(want) {
		t.Fatalf("data len %d, want %d", len(data), len(want))
	}
	for i := range want {
		if data[i] != want[i] {
			t.Errorf("data[%d] = %#x, want %#x", i, data[i], want[i])
		}
	}
	// Label used as an immediate resolves to its address.
	insts := decodeAll(t, p)
	if insts[0].Imm != 0x20000 {
		t.Errorf("movi tbl imm = %#x", insts[0].Imm)
	}
	if addr, ok := p.Symbol("tbl"); !ok || addr != 0x20000 {
		t.Errorf("symbol tbl = %#x, %v", addr, ok)
	}
}

func TestAssembleEntryDirective(t *testing.T) {
	p, err := Assemble(`
		.entry main
	helper:	halt
	main:	movi r1, 1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != DefaultTextBase+isa.InstSize {
		t.Errorf("entry = %#x", p.Entry)
	}
}

func TestAssembleComments(t *testing.T) {
	p, err := Assemble(`
		movi r1, 1   ; semicolon comment
		movi r2, 2   # hash comment
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decodeAll(t, p)); n != 3 {
		t.Errorf("%d insts, want 3", n)
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"bogus r1, r2",           // unknown mnemonic
		"add r1, r2",             // missing operand
		"movi r99, 1",            // bad register
		"beq r1, r2, nowhere",    // undefined label
		"l: nop\nl: nop",         // duplicate label
		".quad 1",                // data directive outside .data
		"ld64 r1, r2",            // malformed mem operand
		"movi r1, 0x1ffffffff",   // immediate too wide
		".data 0x100\n.asciz hi", // unquoted string
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestAssembleOverlappingSegments(t *testing.T) {
	_, err := Assemble(`
		.org 0x1000
		halt
		.data 0x1000
		.quad 1
	`)
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("want overlap error, got %v", err)
	}
}

func TestBuilderFixups(t *testing.T) {
	b := NewBuilder(0x1000)
	b.SetEntry("main")
	b.Label("fn")
	b.Ret()
	b.Label("main")
	b.Movi(1, 5)
	b.Label("top")
	b.Opi(isa.OpAddi, 1, 1, -1)
	b.Call("fn")
	b.Br(isa.OpBne, 1, 0, "top")
	b.MoviLabel(2, "top")
	b.Halt()
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 0x1008 {
		t.Errorf("entry = %#x", p.Entry)
	}
	insts := decodeAll2(t, p, 0x1000)
	top := uint64(0x1010)
	// call fn at 0x1018: offset fn(0x1000) - 0x1018 = -0x18
	if insts[3].Imm != -0x18 {
		t.Errorf("call imm = %d", insts[3].Imm)
	}
	// bne at 0x1020 -> top(0x1010): -0x10
	if insts[4].Imm != -0x10 {
		t.Errorf("bne imm = %d", insts[4].Imm)
	}
	if uint64(insts[5].Imm) != top {
		t.Errorf("movi label imm = %#x", insts[5].Imm)
	}
}

func decodeAll2(t *testing.T, p *Program, base uint64) []isa.Inst {
	t.Helper()
	for _, seg := range p.Segments {
		if seg.Addr != base {
			continue
		}
		var out []isa.Inst
		for off := 0; off+isa.InstSize <= len(seg.Data); off += isa.InstSize {
			in, err := isa.Decode(seg.Data[off:])
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			out = append(out, in)
		}
		return out
	}
	t.Fatal("segment not found")
	return nil
}

func TestBuilderMovImm64(t *testing.T) {
	cases := []int64{0, 1, -1, 1 << 31, -(1 << 31), 0x123456789abcdef0, -0x123456789abcdef0}
	for _, v := range cases {
		b := NewBuilder(0x1000)
		b.MovImm64(5, 6, v)
		b.Halt()
		p, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		m := newEmuMem()
		p.Load(m)
		e := newEmu(p.Entry, m)
		if err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if e.Reg[5] != v {
			t.Errorf("MovImm64(%#x): got %#x", uint64(v), uint64(e.Reg[5]))
		}
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Jmp("nowhere")
	if _, err := b.Finish(); err == nil {
		t.Error("accepted undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("x")
	b.Label("x")
	b.Halt()
	if _, err := b.Finish(); err == nil {
		t.Error("accepted duplicate label")
	}
}

// Minimal emulator shim (avoids an import cycle with internal/mem).
type emuMem map[uint64]byte

func newEmuMem() emuMem { return emuMem{} }

func (m emuMem) Read(addr uint64, size int) uint64 {
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m[addr+uint64(i)]) << (8 * i)
	}
	return v
}

func (m emuMem) Write(addr uint64, size int, val uint64) {
	for i := 0; i < size; i++ {
		m[addr+uint64(i)] = byte(val >> (8 * i))
	}
}

func (m emuMem) WriteBytes(addr uint64, src []byte) {
	for i, b := range src {
		m[addr+uint64(i)] = b
	}
}

func newEmu(entry uint64, m emuMem) *isa.Emulator { return isa.NewEmulator(entry, m) }

func TestAssembleEmulateEndToEnd(t *testing.T) {
	p, err := Assemble(`
		.org 0x10000
		.entry main
	sumto:	; r5 in -> r6 = sum 1..r5
		movi r6, 0
	s1:	add  r6, r6, r5
		addi r5, r5, -1
		bne  r5, zero, s1
		ret
	main:	movi r5, 10
		call sumto
		movi r7, data
		st64 r6, (r7)
		halt
		.data 0x20000
	data:	.quad 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := newEmuMem()
	p.Load(m)
	e := newEmu(p.Entry, m)
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := m.Read(0x20000, 8); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestAssembleTransactions(t *testing.T) {
	p, err := Assemble(`
		txbegin r10, handler
		movi r1, 1
		txcommit
		halt
	handler:
		movi r1, 2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	insts := decodeAll(t, p)
	if insts[0].Op != isa.OpTxBegin || insts[0].Rd != 10 {
		t.Errorf("txbegin = %v", insts[0])
	}
	// handler is at index 4: offset 4*8 - 0 = 32.
	if insts[0].Imm != 32 {
		t.Errorf("handler offset = %d, want 32", insts[0].Imm)
	}
	if insts[2].Op != isa.OpTxCommit {
		t.Errorf("txcommit = %v", insts[2])
	}
}

func TestAssembleTransactionErrors(t *testing.T) {
	bad := []string{
		"txbegin r1",          // missing handler
		"txcommit r1",         // spurious operand
		"txbegin r1, nowhere", // undefined handler
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestDigestCoversTheImage: the digest changes with the entry point and
// every segment's address, length and bytes and every secret region,
// and ignores the name and symbols. A finished program memoizes it; a
// copy edited afterwards rehashes instead of carrying the original's.
func TestDigestCoversTheImage(t *testing.T) {
	b := NewBuilder(DefaultTextBase)
	b.Nop()
	b.Halt()
	b.Data(0x200000, []byte{1, 2, 3, 4})
	b.Data(0x300000, []byte{5, 6})
	b.Secret(0x200000, 2)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d := p.Digest()
	if p.Digest() != d {
		t.Fatal("digest unstable")
	}
	edits := map[string]func(q *Program){
		"entry":      func(q *Program) { q.Entry += 4 },
		"seg addr":   func(q *Program) { q.Segments[1].Addr++ },
		"seg byte":   func(q *Program) { q.Segments[1].Data = []byte{1, 2, 3, 5} },
		"seg length": func(q *Program) { q.Segments[1].Data = []byte{1, 2, 3, 4, 0} },
		// The same bytes split differently between two segments.
		"boundary": func(q *Program) {
			q.Segments[1].Data = []byte{1, 2, 3}
			q.Segments = append(q.Segments, Segment{Addr: 0x200003, Data: []byte{4}})
		},
		"secret addr": func(q *Program) { q.Secrets = []SecretRegion{{Addr: 0x200001, Len: 2}} },
		"secret len":  func(q *Program) { q.Secrets = []SecretRegion{{Addr: 0x200000, Len: 3}} },
	}
	for name, edit := range edits {
		q := *p
		q.Segments = append([]Segment(nil), p.Segments...)
		edit(&q)
		if q.Digest() == d {
			t.Errorf("%s: an edited copy has the original's digest", name)
		}
	}
	// Moving bytes across a segment boundary, with the address word in
	// between, keeps the concatenated stream; only the lengths tell the
	// two images apart.
	word := func(v uint64) []byte {
		b := make([]byte, 8)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		return b
	}
	joinA := &Program{Segments: []Segment{
		{Addr: 0x1000, Data: append(append([]byte{1}, word(0x2000)...), 2)},
		{Addr: 0x3000, Data: []byte{3}},
	}}
	joinB := &Program{Segments: []Segment{
		{Addr: 0x1000, Data: []byte{1}},
		{Addr: 0x2000, Data: append(append([]byte{2}, word(0x3000)...), 3)},
	}}
	if joinA.Digest() == joinB.Digest() {
		t.Error("segments are not length-delimited: a moved boundary keeps the digest")
	}

	q := *p
	q.Name, q.Symbols = "renamed", nil
	if q.Digest() != d {
		t.Error("name or symbols changed the digest")
	}
	if p.Digest() != d {
		t.Error("editing copies changed the original's digest")
	}
}
