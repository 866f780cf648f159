package cpu_test

import (
	"encoding/binary"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/sim"
)

// memoAliasProgram builds a program in which an add waits in the SST
// deferred queue on a cold load miss while a call fetches the PC
// DecodeMemoSize instructions away: the same direct-mapped decode-memo
// slot, overwritten with a different instruction. With rewrite set, a
// younger store also rewrites the waiting add's own word (into a sub),
// the program serializes with membar — as code must before executing
// what it rewrote — and runs the rewritten word on a second pass.
func memoAliasProgram(t *testing.T, rewrite bool) *asm.Program {
	t.Helper()
	const data = 0x200000
	b := asm.NewBuilder(asm.DefaultTextBase)
	b.SetEntry("main")
	b.Label("main")
	b.MovImm64(10, 31, data)
	b.Movi(3, 5)
	b.Movi(5, 7)
	b.Movi(6, 9)
	b.Call("alias") // warm the aliasing line and memo slot
	b.Label("again")
	b.Ld(isa.OpLd64, 4, 10, 0) // cold miss: r4 goes not-available
	deferred := b.PC()
	b.Label("deferred")
	b.Op(isa.OpAdd, 7, 4, 3) // waits in the DQ for r4
	b.Call("alias")          // refetches the aliasing slot meanwhile
	if rewrite {
		b.Br(isa.OpBne, 20, isa.RegZero, "done")
		b.MoviLabel(12, "deferred")
		b.MovImm64(11, 31, int64(isa.Inst{Op: isa.OpSub, Rd: 7, Rs1: 4, Rs2: 3}.EncodeWord()))
		b.St(isa.OpSt64, 11, 12, 0)
		b.Emit(isa.Inst{Op: isa.OpMembar})
		b.Op(isa.OpAdd, 21, 7, isa.RegZero) // keep the first pass's sum
		b.Movi(20, 1)
		b.Jmp("again")
		b.Label("done")
	}
	b.Halt()
	for b.PC() < deferred+cpu.DecodeMemoSize*isa.InstSize {
		b.Nop()
	}
	if b.PC() != deferred+cpu.DecodeMemoSize*isa.InstSize {
		t.Fatalf("alias at %#x, want %#x", b.PC(), deferred+cpu.DecodeMemoSize*isa.InstSize)
	}
	b.Label("alias")
	b.Op(isa.OpXor, 9, 5, 6)
	b.Ret()
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], 1000)
	b.Data(data, word[:])
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestDeferredInstSurvivesMemoReuse: the frontend hands out decoded
// instructions by reference into its decode memo, valid only until the
// next fetch, so the SST core copies an instruction into its DQ entry.
// Replay must execute what was fetched even after the memo slot — and,
// in the rewrite variant, the instruction's own word in memory — has
// changed, and the rewritten word must run once it is fetched again.
// Architectural state must equal the golden emulator's.
func TestDeferredInstSurvivesMemoReuse(t *testing.T) {
	for _, rewrite := range []bool{false, true} {
		prog := memoAliasProgram(t, rewrite)
		emu, gold, err := sim.RunEmulator(prog, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		// r7 = 1000+5 from the add; the rewrite variant keeps that sum in
		// r21 and ends with r7 = 1000-5 from the rewritten word.
		sum := emu.Reg[7]
		if rewrite {
			if emu.Reg[7] != 995 {
				t.Fatalf("emulator ran the rewritten word as r7 = %d, want 995", emu.Reg[7])
			}
			sum = emu.Reg[21]
		}
		if sum != 1005 {
			t.Fatalf("emulator's add gave %d, want 1005", sum)
		}
		for _, k := range []sim.Kind{sim.KindScout, sim.KindSSTEA, sim.KindSST, sim.KindSSTBig} {
			out, err := sim.Run(k, prog, sim.DefaultOptions())
			if err != nil {
				t.Fatalf("rewrite=%v %v: %v", rewrite, k, err)
			}
			if k != sim.KindScout && out.SST.Deferrals == 0 {
				t.Errorf("rewrite=%v %v: nothing was deferred, so the DQ was not exercised", rewrite, k)
			}
			if out.Retired != emu.Executed {
				t.Errorf("rewrite=%v %v: retired %d, golden %d", rewrite, k, out.Retired, emu.Executed)
			}
			if out.Regs != emu.Reg {
				t.Errorf("rewrite=%v %v: registers %v, golden %v", rewrite, k, out.Regs, emu.Reg)
			}
			if !out.Mem.Equal(gold) {
				t.Errorf("rewrite=%v %v: memory differs at %#x", rewrite, k, out.Mem.Diff(gold, 4))
			}
		}
	}
}
