package core

import (
	"fmt"
	"reflect"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cmp"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// TestTxCommitPublishesAtomically: stores inside a transaction are
// invisible until txcommit, then all appear.
func TestTxCommitPublishesAtomically(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(6, 11)
		b.Movi(7, 22)
		b.TxBegin(10, "fail")
		b.St(isa.OpSt64, 6, 5, 0)
		b.St(isa.OpSt64, 7, 5, 8)
		b.Ld(isa.OpLd64, 8, 5, 0) // reads its own buffered store
		b.TxCommit()
		b.Halt()
		b.Label("fail")
		b.Movi(9, 0xbad)
		b.Halt()
	})
	// Step until both stores are buffered; memory must still be clean.
	stepUntil(t, c, 5000, func() bool { return len(c.ssb) == 2 })
	if mach.Mem.Read(0x20000, 8) != 0 || mach.Mem.Read(0x20008, 8) != 0 {
		t.Fatal("transactional store leaked before commit")
	}
	run(t, c, 100_000)
	if c.regs[9] == 0xbad {
		t.Fatal("transaction aborted unexpectedly")
	}
	if mach.Mem.Read(0x20000, 8) != 11 || mach.Mem.Read(0x20008, 8) != 22 {
		t.Error("transactional stores not published at commit")
	}
	if c.regs[8] != 11 {
		t.Errorf("in-txn load = %d, want 11 (SSB forwarding)", c.regs[8])
	}
	st := c.Stats()
	if st.Tx.Begins != 1 || st.Tx.Commits != 1 || st.Tx.Aborts != 0 {
		t.Errorf("tx stats = %+v", st.Tx)
	}
}

// TestTxCapacityAbort: overflowing the SSB aborts with the capacity code
// and rolls registers back.
func TestTxCapacityAbort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SSBSize = 4
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(6, 7)
		b.TxBegin(10, "fail")
		b.Movi(6, 99) // clobbered inside the txn; must roll back
		for i := 0; i < 6; i++ {
			b.St(isa.OpSt64, 6, 5, int32(i*8))
		}
		b.TxCommit()
		b.Halt()
		b.Label("fail")
		b.Opi(isa.OpAddi, 11, 10, 0) // capture the abort code
		b.Halt()
	})
	run(t, c, 100_000)
	if c.regs[11] != TxAbortCapacity {
		t.Errorf("abort code = %d, want %d", c.regs[11], TxAbortCapacity)
	}
	if c.regs[6] != 7 {
		t.Errorf("r6 = %d, want rolled back to 7", c.regs[6])
	}
	for i := 0; i < 6; i++ {
		if got := mach.Mem.Read(uint64(0x20000+i*8), 8); got != 0 {
			t.Errorf("aborted store %d leaked: %d", i, got)
		}
	}
	if c.Stats().Tx.AbortsByCode[TxAbortCapacity] != 1 {
		t.Errorf("capacity aborts = %d", c.Stats().Tx.AbortsByCode[TxAbortCapacity])
	}
}

// TestTxAbortRestoresRegState: an abort restores the whole per-register
// block taken at txbegin (every array of regState, including any added
// later), apart from the abort-code register the handler receives.
func TestTxAbortRestoresRegState(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(6, 7)
		b.TxBegin(10, "fail")
		b.Movi(6, 99)
		b.St(isa.OpSt64, 6, 5, 0)
		for r := uint8(12); r < 20; r++ {
			b.Movi(r, int32(r))
		}
		b.TxCommit()
		b.Halt()
		b.Label("fail")
		b.Halt()
	})
	stepUntil(t, c, 5000, func() bool { return c.tx.active && len(c.ssb) == 1 })
	ck := c.tx.ckpt
	if c.regState == ck.regState {
		t.Fatal("transaction did not dirty the register state")
	}
	c.tx.abort = TxAbortConflict
	c.txAbort(c.cycle)
	got, want := reflect.ValueOf(c.regState), reflect.ValueOf(ck.regState)
	for f := 0; f < got.NumField(); f++ {
		for r := 0; r < isa.NumRegs; r++ {
			if r != 10 && !got.Field(f).Index(r).Equal(want.Field(f).Index(r)) {
				t.Errorf("regState.%s[%d] = %v after abort, txbegin had %v",
					got.Type().Field(f).Name, r, got.Field(f).Index(r), want.Field(f).Index(r))
			}
		}
	}
	if len(c.ssb) != 0 {
		t.Errorf("%d transactional stores survived the abort", len(c.ssb))
	}
}

// TestTxUnsupportedOpAborts: cas inside a transaction aborts with the
// unsupported code.
func TestTxUnsupportedOpAborts(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.TxBegin(10, "fail")
		b.Cas(6, 5, 7)
		b.TxCommit()
		b.Halt()
		b.Label("fail")
		b.Opi(isa.OpAddi, 11, 10, 0)
		b.Halt()
	})
	run(t, c, 100_000)
	if c.regs[11] != TxAbortUnsupported {
		t.Errorf("abort code = %d", c.regs[11])
	}
}

// TestTxNestedAborts: a txbegin inside a transaction aborts the outer
// one with the nesting code.
func TestTxNestedAborts(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.TxBegin(10, "fail")
		b.TxBegin(12, "fail")
		b.TxCommit()
		b.Halt()
		b.Label("fail")
		b.Opi(isa.OpAddi, 11, 10, 0)
		b.Halt()
	})
	run(t, c, 100_000)
	if c.regs[11] != TxAbortNested {
		t.Errorf("abort code = %d", c.regs[11])
	}
}

// TestTxRetryLoopConverges: the canonical retry pattern eventually
// commits even after an abort (forced here via capacity on the first
// attempt by using a deterministic shrinking store count — simplest:
// retry after unsupported-op on a path executed only once).
func TestTxRetryLoopConverges(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(12, 0) // attempt counter
		b.Label("retry")
		b.Opi(isa.OpAddi, 12, 12, 1)
		b.TxBegin(10, "handler")
		// First attempt trips cas; later attempts skip it.
		b.Opi(isa.OpSlti, 13, 12, 2)
		b.Br(isa.OpBeq, 13, isa.RegZero, "safe")
		b.Cas(6, 5, 7) // aborts attempt 1
		b.Label("safe")
		b.Movi(6, 123)
		b.St(isa.OpSt64, 6, 5, 0)
		b.TxCommit()
		b.Halt()
		b.Label("handler")
		b.Jmp("retry")
	})
	run(t, c, 1_000_000)
	if got := mach.Mem.Read(0x20000, 8); got != 123 {
		t.Errorf("committed value = %d", got)
	}
	if c.regs[12] != 2 {
		t.Errorf("attempts = %d, want 2", c.regs[12])
	}
	st := c.Stats()
	if st.Tx.Aborts != 1 || st.Tx.Commits != 1 {
		t.Errorf("tx stats = %+v", st.Tx)
	}
}

// txCounterProgram builds the shared HTM counter increment program:
// each core increments a shared counter n times inside transactions.
func txCounterProgram(t *testing.T, n int) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(asm.DefaultTextBase)
	src := fmt.Sprintf(`
		.org 0x10000
	worker0:
		movi r20, %d
		j    work
	worker1:
		movi r20, %d
	work:
		movi r5, 0x200000
	loop:
		txbegin r10, handler
		ld64 r6, (r5)
		addi r6, r6, 1
		st64 r6, (r5)
		txcommit
		addi r20, r20, -1
		bne  r20, zero, loop
		halt
	handler:
		j loop
	`, n, n)
	_ = b
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTxConflictTwoCores: two SST cores hammer one counter with HTM
// retry loops; the final count must be exact and conflict aborts must
// have occurred.
func TestTxConflictTwoCores(t *testing.T) {
	const perCore = 60
	prog := txCounterProgram(t, perCore)
	w0, _ := prog.Symbol("worker0")
	w1, _ := prog.Symbol("worker1")
	chip, err := cmp.NewShared(testHier(), bpred.DefaultConfig(), prog,
		[]uint64{w0, w1},
		func(id int, m *cpu.Machine, entry uint64) (cpu.Core, error) {
			return New(m, DefaultConfig(), entry), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if got := chip.Machines[0].Mem.Read(0x200000, 8); got != 2*perCore {
		t.Errorf("counter = %d, want %d", got, 2*perCore)
	}
	var aborts, commits uint64
	for _, cr := range chip.Cores {
		st := cr.(*Core).Stats()
		aborts += st.Tx.Aborts
		commits += st.Tx.Commits
	}
	if commits != 2*perCore {
		t.Errorf("commits = %d, want %d", commits, 2*perCore)
	}
	if aborts == 0 {
		t.Error("no conflict aborts under contention")
	}
}

// TestTxReadSetConflict: a transaction that only READS a location
// aborts when another core writes it (tested via the listener directly
// for determinism).
func TestTxReadSetConflict(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.TxBegin(10, "fail")
		b.Ld(isa.OpLd64, 6, 5, 0)
		// Spin long enough for the "remote" write to land.
		b.Movi(12, 50)
		b.Label("spin")
		b.Opi(isa.OpAddi, 12, 12, -1)
		b.Br(isa.OpBne, 12, isa.RegZero, "spin")
		b.TxCommit()
		b.Halt()
		b.Label("fail")
		b.Opi(isa.OpAddi, 11, 10, 0)
		b.Halt()
	})
	// Wait until the transaction has read the line.
	stepUntil(t, c, 10_000, func() bool { return c.tx.active && len(c.tx.reads) > 0 })
	// Simulate a remote committed store to the same line.
	mach.Hier.SetAddressSalt(0, 0) // identity (already default)
	for line := range c.tx.reads {
		cListener(c)(line)
		break
	}
	run(t, c, 100_000)
	if c.regs[11] != TxAbortConflict {
		t.Errorf("abort code = %d, want conflict", c.regs[11])
	}
}

// cListener fetches the registered conflict listener by re-deriving it:
// the test injects the conflict exactly as the hierarchy would.
func cListener(c *Core) func(uint64) {
	return func(line uint64) {
		if c.tx.active && c.tx.abort == 0 {
			if _, ok := c.tx.reads[line]; ok {
				c.tx.abort = TxAbortConflict
			}
		}
	}
}

// TestTxEquivalenceWithFlatCores: a single-threaded program using
// transactions (which always commit) produces identical architectural
// state on the SST core and the flat (no-HTM) cores and emulator.
func TestTxEquivalenceWithFlatCores(t *testing.T) {
	src := `
		.org 0x10000
		movi r5, 0x20000
		movi r7, 10
	loop:	txbegin r10, fail
		ld64 r6, (r5)
		addi r6, r6, 3
		st64 r6, (r5)
		txcommit
		addi r7, r7, -1
		bne  r7, zero, loop
		halt
	fail:	movi r9, 0xbad
		halt
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	// Golden.
	gm := mem.NewSparse()
	prog.Load(gm)
	emu := isa.NewEmulator(prog.Entry, gm)
	if err := emu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	// SST with real HTM.
	m := mem.NewSparse()
	prog.Load(m)
	mach, err := cpu.NewMachine(m, testHier(), bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := New(mach, DefaultConfig(), prog.Entry)
	run(t, c, 1_000_000)
	if c.Retired() != emu.Executed {
		t.Errorf("retired %d, golden %d", c.Retired(), emu.Executed)
	}
	if got := m.Read(0x20000, 8); got != 30 {
		t.Errorf("counter = %d, want 30", got)
	}
	if !m.Equal(gm) {
		t.Error("memory image differs from golden")
	}
}
