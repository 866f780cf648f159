// Package asm provides the RK64 program toolchain: a Program image
// format, a programmatic code Builder with label fixups (used by the
// workload generators), and a two-pass textual assembler.
package asm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"rocksim/internal/isa"
)

// DefaultTextBase is the conventional load address for code.
const DefaultTextBase = 0x10000

// Segment is a contiguous run of initialized memory in a program image.
type Segment struct {
	Addr uint64
	Data []byte
}

// SecretRegion marks a byte range of the program image as holding secret
// data for the transient-leakage oracle (see sim.CheckTransientLeakage):
// the oracle asserts that observable microarchitectural state after any
// rollback is independent of the bytes in these ranges.
type SecretRegion struct {
	Addr uint64
	Len  int
}

// Program is a loadable RK64 program image: code and data segments plus
// the entry point and the symbol table. A finished program is immutable:
// harnesses share one image across runs, goroutines and caches, so
// derive a modified program from a copy (see Digest).
type Program struct {
	Entry    uint64
	Segments []Segment
	Symbols  map[string]uint64
	// Secrets lists byte ranges holding secret data (".secret" directive
	// or Builder.Secret); the leakage oracle perturbs these ranges.
	Secrets []SecretRegion
	// Name optionally identifies the program (e.g. the workload name);
	// harness errors use it to attribute failures (see Desc).
	Name string

	// digest memoizes Digest for the program Finish returned; a copy of
	// the struct carries the pointer but is not its owner.
	digest *digestMemo
}

// Digest is a program image's content identity (see Program.Digest).
type Digest [sha256.Size]byte

type digestMemo struct {
	once  sync.Once
	owner *Program
	sum   Digest
}

// Digest returns the SHA-256 of everything that decides how the image
// runs: the entry point, each segment's address, length and bytes, and
// each secret region. Every field is fixed-width or length-prefixed, so
// no two different images share an encoding. The name and symbols are
// labels, not content, and stay out.
//
// A program from Finish hashes once, on the first call, and returns the
// memoized sum after that. Any other program — a struct literal, or a
// copy being edited the way the leakage oracle perturbs secrets —
// rehashes on every call, so a copy never carries its original's digest.
func (p *Program) Digest() Digest {
	if m := p.digest; m != nil && m.owner == p {
		m.once.Do(func() { m.sum = p.hash() })
		return m.sum
	}
	return p.hash()
}

func (p *Program) hash() Digest {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(p.Entry)
	word(uint64(len(p.Segments)))
	for _, s := range p.Segments {
		word(s.Addr)
		word(uint64(len(s.Data)))
		h.Write(s.Data)
	}
	word(uint64(len(p.Secrets)))
	for _, s := range p.Secrets {
		word(s.Addr)
		word(uint64(s.Len))
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// Desc returns the program's name when one was set, and its entry
// address otherwise — the identity used in harness errors.
func (p *Program) Desc() string {
	if p.Name != "" {
		return p.Name
	}
	return fmt.Sprintf("entry %#x", p.Entry)
}

// Memory is the subset of functional memory the loader needs.
type Memory interface {
	WriteBytes(addr uint64, src []byte)
}

// Load copies all segments into memory.
func (p *Program) Load(m Memory) {
	for _, s := range p.Segments {
		m.WriteBytes(s.Addr, s.Data)
	}
}

// Size returns the total initialized bytes across segments.
func (p *Program) Size() int {
	n := 0
	for _, s := range p.Segments {
		n += len(s.Data)
	}
	return n
}

// Symbol returns the address of a label defined in the program.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// Builder assembles a program in memory with label resolution. It is the
// code generator interface used by the synthetic workloads: emit
// instructions with helper methods, mark labels, attach data segments,
// then call Finish.
type Builder struct {
	textBase uint64
	insts    []isa.Inst
	labels   map[string]uint64
	fixups   []fixup
	segs     []Segment
	secrets  []SecretRegion
	entry    uint64
	entrySet bool
	err      error
}

type fixupKind uint8

const (
	fixBranch fixupKind = iota // imm = label - pc (pc-relative)
	fixAbs                     // imm = label (absolute, must fit int32)
)

type fixup struct {
	index int
	label string
	kind  fixupKind
}

// NewBuilder starts a builder with code at base.
func NewBuilder(base uint64) *Builder {
	return &Builder{textBase: base, labels: make(map[string]uint64)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm: "+format, args...)
	}
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint64 {
	return b.textBase + uint64(len(b.insts))*isa.InstSize
}

// Label defines a label at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = b.PC()
}

// SetEntry sets the program entry point to the given label (resolved at
// Finish). By default entry is the text base.
func (b *Builder) SetEntry(label string) {
	b.fixups = append(b.fixups, fixup{index: -1, label: label})
	b.entrySet = true
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.insts = append(b.insts, in) }

// Op emits a reg-reg ALU instruction.
func (b *Builder) Op(op isa.Op, rd, rs1, rs2 uint8) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Opi emits a reg-imm ALU instruction.
func (b *Builder) Opi(op isa.Op, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Movi emits rd = imm (imm must fit in int32).
func (b *Builder) Movi(rd uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpMovi, Rd: rd, Imm: imm})
}

// MoviLabel emits rd = address-of(label).
func (b *Builder) MoviLabel(rd uint8, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label, kind: fixAbs})
	b.Emit(isa.Inst{Op: isa.OpMovi, Rd: rd})
}

// MovImm64 emits code materializing an arbitrary 64-bit constant into
// rd, clobbering scratch when the value does not fit in 32 bits.
func (b *Builder) MovImm64(rd, scratch uint8, v int64) {
	if v == int64(int32(v)) {
		b.Movi(rd, int32(v))
		return
	}
	b.Movi(rd, int32(v>>32))
	b.Opi(isa.OpSlli, rd, rd, 32)
	b.Movi(scratch, int32(v&0xffffffff))
	// movi sign-extends; clear any smeared upper bits before merging.
	b.Opi(isa.OpSlli, scratch, scratch, 32)
	b.Opi(isa.OpSrli, scratch, scratch, 32)
	b.Op(isa.OpOr, rd, rd, scratch)
}

// Ld emits a load rd = mem[rs1+imm].
func (b *Builder) Ld(op isa.Op, rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// St emits a store mem[rs1+imm] = rs2.
func (b *Builder) St(op isa.Op, rs2, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// Br emits a conditional branch to label.
func (b *Builder) Br(op isa.Op, rs1, rs2 uint8, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label, kind: fixBranch})
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

// Jmp emits an unconditional jump to label (jal r0).
func (b *Builder) Jmp(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label, kind: fixBranch})
	b.Emit(isa.Inst{Op: isa.OpJal, Rd: isa.RegZero})
}

// Call emits jal ra, label.
func (b *Builder) Call(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: label, kind: fixBranch})
	b.Emit(isa.Inst{Op: isa.OpJal, Rd: isa.RegRA})
}

// Ret emits jalr r0, 0(ra).
func (b *Builder) Ret() {
	b.Emit(isa.Inst{Op: isa.OpJalr, Rd: isa.RegZero, Rs1: isa.RegRA})
}

// Jalr emits an indirect jump.
func (b *Builder) Jalr(rd, rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpJalr, Rd: rd, Rs1: rs1, Imm: imm})
}

// Cas emits a compare-and-swap.
func (b *Builder) Cas(rd, rs1, rs2 uint8) {
	b.Emit(isa.Inst{Op: isa.OpCas, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Prefetch emits a software prefetch of rs1+imm.
func (b *Builder) Prefetch(rs1 uint8, imm int32) {
	b.Emit(isa.Inst{Op: isa.OpPrefetch, Rs1: rs1, Imm: imm})
}

// TxBegin emits a transaction begin with the given abort handler label.
func (b *Builder) TxBegin(rd uint8, handler string) {
	b.fixups = append(b.fixups, fixup{index: len(b.insts), label: handler, kind: fixBranch})
	b.Emit(isa.Inst{Op: isa.OpTxBegin, Rd: rd})
}

// TxCommit emits a transaction commit.
func (b *Builder) TxCommit() { b.Emit(isa.Inst{Op: isa.OpTxCommit}) }

// Nop emits a nop.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNop}) }

// Halt emits a halt.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHalt}) }

// Data attaches an initialized data segment at addr.
func (b *Builder) Data(addr uint64, data []byte) {
	b.segs = append(b.segs, Segment{Addr: addr, Data: data})
}

// Secret marks [addr, addr+n) as secret data for the leakage oracle.
func (b *Builder) Secret(addr uint64, n int) {
	if n <= 0 {
		b.fail("secret region at %#x has non-positive length %d", addr, n)
		return
	}
	b.secrets = append(b.secrets, SecretRegion{Addr: addr, Len: n})
}

// DataLabel defines a symbol for a data address (not a code label).
func (b *Builder) DataLabel(name string, addr uint64) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = addr
}

// Finish resolves fixups and returns the program image.
func (b *Builder) Finish() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	entry := b.textBase
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		if f.index < 0 {
			entry = target
			continue
		}
		pc := b.textBase + uint64(f.index)*isa.InstSize
		switch f.kind {
		case fixBranch:
			off := int64(target) - int64(pc)
			if off != int64(int32(off)) {
				return nil, fmt.Errorf("asm: branch to %q out of range", f.label)
			}
			b.insts[f.index].Imm = int32(off)
		case fixAbs:
			if target != uint64(int32(target)) && int64(target) != int64(int32(target)) {
				return nil, fmt.Errorf("asm: label %q address %#x does not fit in imm32", f.label, target)
			}
			b.insts[f.index].Imm = int32(target)
		}
	}
	code := make([]byte, len(b.insts)*isa.InstSize)
	for i, in := range b.insts {
		in.Encode(code[i*isa.InstSize:])
	}
	segs := append([]Segment{{Addr: b.textBase, Data: code}}, b.segs...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Addr < segs[j].Addr })
	for i := 1; i < len(segs); i++ {
		prev := segs[i-1]
		if prev.Addr+uint64(len(prev.Data)) > segs[i].Addr {
			return nil, fmt.Errorf("asm: overlapping segments at %#x", segs[i].Addr)
		}
	}
	syms := make(map[string]uint64, len(b.labels))
	for k, v := range b.labels {
		syms[k] = v
	}
	secrets := append([]SecretRegion(nil), b.secrets...)
	sort.Slice(secrets, func(i, j int) bool { return secrets[i].Addr < secrets[j].Addr })
	p := &Program{Entry: entry, Segments: segs, Symbols: syms, Secrets: secrets, digest: &digestMemo{}}
	p.digest.owner = p
	return p, nil
}
