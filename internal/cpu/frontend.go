package cpu

import (
	"encoding/binary"
	"fmt"

	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// Frontend models instruction delivery: sequential fetch through the
// L1 instruction cache with a one-line fetch buffer, plus redirect
// bubbles for taken branches and mispredictions. All core models share
// it, so frontend behaviour never biases the pipeline comparison.
type Frontend struct {
	m   *Machine
	l1i *mem.Cache // this core's L1I, resolved once (fixed at construction)

	pc         uint64
	stallUntil uint64 // no instruction delivery before this cycle

	// One-line fetch buffer.
	lineAddr  uint64
	lineReady uint64
	haveLine  bool

	// Cached functional-memory page for instruction reads. Sparse pages
	// are mutated in place and never replaced, so the pointer stays
	// correct across stores (including stores into this page); it only
	// needs replacing when fetch crosses a page boundary.
	page    *[mem.PageSize]byte
	pageNum uint64

	// Direct-mapped decoded-instruction cache. Decoding is pure, so the
	// memo is a wall-clock optimization only; each hit revalidates
	// against the freshly read word, which keeps self-modifying code
	// correct (the simulated machine has no structural i-cache
	// coherence to model here — Next always reads architectural memory).
	// It outlives a run (see Reset).
	memo *[decodeMemoSize]decodeMemoEntry
}

// decodeMemoSize is the number of direct-mapped decode-memo slots.
// Power of two; indexed by instruction number within the address space.
const decodeMemoSize = 4096

type decodeMemoEntry struct {
	pc    uint64
	word  uint64
	in    isa.Inst
	valid bool
}

// NewFrontend creates a frontend beginning execution at entry.
func NewFrontend(m *Machine, entry uint64) *Frontend {
	return &Frontend{m: m, l1i: m.Hier.L1I(m.CoreID), memo: new([decodeMemoSize]decodeMemoEntry), pc: entry}
}

// PC returns the address of the next instruction to deliver.
func (f *Frontend) PC() uint64 { return f.pc }

// Reset returns the frontend to a freshly constructed state beginning at
// entry. Only the machine, its L1I and the decoded-instruction memo
// survive: every memo hit revalidates against the freshly read word and
// decoding is pure, so stale entries can never change an outcome, only
// save wall clock across pooled runs. Everything else — fetch point,
// redirect bubble, fetch buffer, cached page pointer — starts at zero.
func (f *Frontend) Reset(entry uint64) {
	*f = Frontend{m: f.m, l1i: f.l1i, memo: f.memo, pc: entry}
}

// Redirect steers fetch to target, inserting penalty bubble cycles
// starting at cycle now. Used for taken branches, mispredictions and
// speculation rollbacks.
func (f *Frontend) Redirect(target uint64, now uint64, penalty uint64) {
	f.pc = target
	f.haveLine = false
	if until := now + penalty; until > f.stallUntil {
		f.stallUntil = until
	}
}

// Stalled reports whether the frontend is inside a redirect bubble at
// cycle now.
func (f *Frontend) Stalled(now uint64) bool { return now < f.stallUntil }

// Advance moves the sequential fetch point past the instruction just
// delivered (called by the core after consuming an instruction that did
// not redirect).
func (f *Frontend) Advance() { f.pc += isa.InstSize }

// Next returns the instruction at the current PC if it can be delivered
// at cycle now. ok is false while the frontend is stalled on a redirect
// bubble or an instruction-cache fill.
//
// The instruction is returned by reference into the decode memo, so the
// caller reads it in place instead of receiving (and spilling) the
// decoded fields by value. The pointer is valid only until the next
// call: a later fetch may overwrite the memo slot, so anything that
// keeps an instruction past the current cycle (the SST deferred queue,
// the OOO window) copies it.
func (f *Frontend) Next(now uint64) (in *isa.Inst, pc uint64, ok bool, err error) {
	if now < f.stallUntil {
		return nil, 0, false, nil
	}
	line := f.l1i.LineAddr(f.pc)
	if !f.haveLine || f.lineAddr != line {
		res := f.m.Hier.Access(f.m.CoreID, mem.AccFetch, f.pc, now)
		f.lineAddr = line
		f.lineReady = res.Ready
		f.haveLine = true
	}
	if now < f.lineReady {
		return nil, 0, false, nil
	}
	var w uint64
	off := f.pc & (mem.PageSize - 1)
	if pn := f.pc >> mem.PageBits; f.page != nil && pn == f.pageNum && off+isa.InstSize <= mem.PageSize {
		w = binary.LittleEndian.Uint64(f.page[off:])
	} else {
		w = f.m.Mem.Read(f.pc, isa.InstSize)
		if p := f.m.Mem.PageFor(f.pc); p != nil {
			f.page, f.pageNum = p, pn
		}
	}
	e := &f.memo[(f.pc/isa.InstSize)%decodeMemoSize]
	if e.valid && e.pc == f.pc && e.word == w {
		return &e.in, f.pc, true, nil
	}
	dec, derr := isa.DecodeWord(w)
	if derr != nil {
		return nil, f.pc, false, fmt.Errorf("cpu: fetch at pc=%#x: %w", f.pc, derr)
	}
	*e = decodeMemoEntry{pc: f.pc, word: w, in: dec, valid: true}
	return &e.in, f.pc, true, nil
}

// FetchState is the frontend's fetch point and timing, as the SST
// core's scout period jump compares it from one loop iteration to the
// next (see internal/core/period.go). It holds every Frontend field
// except the machine, its L1I and the decode memo, which are fixed for
// the run or invisible to it; the page pointer is named by PageNum.
type FetchState struct {
	PC         uint64
	StallUntil uint64
	LineAddr   uint64
	LineReady  uint64
	HaveLine   bool
	PageNum    uint64
}

// State returns the fetch point and timing.
func (f *Frontend) State() FetchState {
	return FetchState{PC: f.pc, StallUntil: f.stallUntil, LineAddr: f.lineAddr,
		LineReady: f.lineReady, HaveLine: f.haveLine, PageNum: f.pageNum}
}

// ShiftTiming moves the redirect-bubble end by stall cycles and the
// fetch line's ready cycle by line cycles: the credit of a jump over
// repeating loop iterations, in which each either re-arms at the same
// offset from the clock (moving with it) or lies in the past (zero).
func (f *Frontend) ShiftTiming(stall, line uint64) {
	f.stallUntil += stall
	f.lineReady += line
}

// NextDelivery returns the earliest cycle strictly after now at which
// Next's answer can change (0 = it can already deliver, or delivery
// depends on state not timed here, e.g. a pending line fill for a
// different line). It is a conservative lower bound used as one of the
// fast-forward candidates: understating only shortens a jump.
func (f *Frontend) NextDelivery(now uint64) uint64 {
	if now < f.stallUntil {
		// Inside a redirect bubble nothing happens until it ends; the
		// first post-bubble Next may issue a fetch access, so the bubble
		// end is a state-change cycle.
		return f.stallUntil
	}
	if f.haveLine && f.lineAddr == f.l1i.LineAddr(f.pc) && now < f.lineReady {
		return f.lineReady
	}
	return 0
}
