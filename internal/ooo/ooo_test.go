package ooo

import (
	"reflect"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

func testHier() mem.HierConfig {
	return mem.HierConfig{
		L1I:     mem.CacheConfig{Name: "L1I", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 4},
		L1D:     mem.CacheConfig{Name: "L1D", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 8},
		L2:      mem.CacheConfig{Name: "L2", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 10, MSHRs: 16},
		L2Banks: 2,
		DRAM:    mem.DRAMConfig{Latency: 200, Banks: 4, BankBusy: 8},
	}
}

func assemble(t *testing.T, gen func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder(asm.DefaultTextBase)
	gen(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func build(t *testing.T, cfg Config, gen func(b *asm.Builder)) (*Core, *cpu.Machine) {
	t.Helper()
	return load(t, cfg, assemble(t, gen))
}

// load returns a core for cfg with prog loaded into a fresh machine.
func load(t *testing.T, cfg Config, prog *asm.Program) (*Core, *cpu.Machine) {
	t.Helper()
	m := mem.NewSparse()
	prog.Load(m)
	mach, err := cpu.NewMachine(m, testHier(), bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(mach, cfg, prog.Entry), mach
}

func mustRun(t *testing.T, c *Core, max uint64) {
	t.Helper()
	if err := cpu.Run(c, max); err != nil {
		t.Fatal(err)
	}
}

func TestRenameEliminatesWAW(t *testing.T) {
	// Repeated writes to the same register with independent chains:
	// renaming lets them all be in flight.
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Ld(isa.OpLd64, 2, 1, 0)  // long miss writes r2
		b.Movi(2, 5)               // WAW: must NOT wait for the load
		b.Opi(isa.OpAddi, 3, 2, 1) // reads the movi's value
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Regs()[3] != 6 {
		t.Errorf("r3 = %d, want 6", c.Regs()[3])
	}
	if c.Regs()[2] != 5 {
		t.Errorf("r2 = %d, want 5 (movi is younger)", c.Regs()[2])
	}
}

func TestOutOfOrderIssueUnderMiss(t *testing.T) {
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(5, 0x30000)
		b.Ld(isa.OpLd64, 2, 1, 0) // miss
		b.Ld(isa.OpLd64, 6, 5, 0) // independent miss: overlaps
		b.Opi(isa.OpAddi, 3, 2, 1)
		b.Op(isa.OpAdd, 7, 6, 3)
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Cycle() > 600 {
		t.Errorf("cycles = %d: independent misses did not overlap", c.Cycle())
	}
	if c.Base().MLPSum < 2 {
		t.Error("never had 2 outstanding misses")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(2, 0xabcd)
		b.St(isa.OpSt64, 2, 1, 0)
		b.Ld(isa.OpLd64, 3, 1, 0) // forwards from the in-flight store
		b.Opi(isa.OpAddi, 4, 3, 1)
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Regs()[4] != 0xabce {
		t.Errorf("r4 = %#x", c.Regs()[4])
	}
}

func TestPartialForwardComposition(t *testing.T) {
	// A narrow store overlaying a wide load composes bytes correctly.
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(2, 0xff)
		b.St(isa.OpSt8, 2, 1, 2) // overwrite byte 2
		b.Ld(isa.OpLd64, 3, 1, 0)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 0x1111111111111111)
	mustRun(t, c, 10_000)
	if got := uint64(c.Regs()[3]); got != 0x1111111111ff1111 {
		t.Errorf("r3 = %#x", got)
	}
}

func TestBranchMispredictSquash(t *testing.T) {
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Ld(isa.OpLd64, 2, 1, 0) // memory: 1 -> branch not taken
		b.Br(isa.OpBeq, 2, isa.RegZero, "taken")
		b.Movi(3, 111)
		b.Halt()
		b.Label("taken")
		b.Movi(3, 222)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 1)
	mustRun(t, c, 10_000)
	if c.Regs()[3] != 111 {
		t.Errorf("r3 = %d", c.Regs()[3])
	}
	st := c.Stats()
	// Initial weakly-taken prediction is wrong for this branch.
	if st.Squashes == 0 || st.WrongPathInsts == 0 {
		t.Errorf("squashes=%d wrongpath=%d", st.Squashes, st.WrongPathInsts)
	}
}

func TestMemOrderViolationSquash(t *testing.T) {
	// A load speculatively bypasses an older store with a late-resolving
	// address that does conflict.
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(4, 0x5555)
		b.Ld(isa.OpLd64, 2, 1, 0) // miss: store address depends on it
		b.Op(isa.OpAdd, 3, 1, 2)  // addr = 0x20000 + 64
		b.St(isa.OpSt64, 4, 3, 0)
		b.Ld(isa.OpLd64, 5, 1, 64) // same location, issues early
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 64)
	mustRun(t, c, 10_000)
	if c.Regs()[5] != 0x5555 {
		t.Errorf("r5 = %#x, want 0x5555", c.Regs()[5])
	}
	if c.Stats().MemOrderViolations == 0 {
		t.Error("no violation recorded")
	}
}

func TestConservativeModeBlocksInstead(t *testing.T) {
	cfg := SmallConfig()
	cfg.SpecLoads = false
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(4, 0x5555)
		b.Ld(isa.OpLd64, 2, 1, 0)
		b.Op(isa.OpAdd, 3, 1, 2)
		b.St(isa.OpSt64, 4, 3, 0)
		b.Ld(isa.OpLd64, 5, 1, 64)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 64)
	mustRun(t, c, 10_000)
	if c.Regs()[5] != 0x5555 {
		t.Errorf("r5 = %#x", c.Regs()[5])
	}
	if c.Stats().MemOrderViolations != 0 {
		t.Error("conservative mode had a violation")
	}
}

func TestJalrBTBMissBlocksFetch(t *testing.T) {
	c, _ := build(t, SmallConfig(), func(b *asm.Builder) {
		b.SetEntry("main")
		b.Label("target")
		b.Movi(2, 77)
		b.Halt()
		b.Label("main")
		b.MoviLabel(1, "target")
		b.Jalr(0, 1, 0) // cold BTB: fetch must wait for resolution
		b.Movi(2, 1)    // never reached
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if c.Regs()[2] != 77 {
		t.Errorf("r2 = %d", c.Regs()[2])
	}
}

func TestROBWindowLimits(t *testing.T) {
	// With a tiny ROB, a miss at the head blocks everything; a larger
	// ROB lets independent work proceed further.
	gen := func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Ld(isa.OpLd64, 2, 1, 0)
		for i := 0; i < 64; i++ {
			b.Opi(isa.OpAddi, 3, 3, 1) // independent chain
		}
		b.Halt()
	}
	small := SmallConfig()
	small.ROBSize = 4
	small.IQSize = 4
	c1, _ := build(t, small, gen)
	mustRun(t, c1, 100_000)
	large := SmallConfig()
	large.ROBSize = 128
	large.IQSize = 64
	c2, _ := build(t, large, gen)
	mustRun(t, c2, 100_000)
	if c2.Cycle() >= c1.Cycle() {
		t.Errorf("bigger window not faster: %d vs %d", c2.Cycle(), c1.Cycle())
	}
	if c1.Stats().ROBFullCycles == 0 {
		t.Error("tiny ROB never filled")
	}
}

func TestAtomicsAtHead(t *testing.T) {
	c, mach := build(t, SmallConfig(), func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		b.Movi(2, 0) // compare
		b.Movi(3, 9) // swap-in
		b.Cas(3, 1, 2)
		b.Opi(isa.OpAddi, 4, 3, 1) // uses cas result (old value 0)
		b.Halt()
	})
	mustRun(t, c, 10_000)
	if got := mach.Mem.Read(0x20000, 8); got != 9 {
		t.Errorf("cas mem = %d", got)
	}
	if c.Regs()[4] != 1 {
		t.Errorf("r4 = %d", c.Regs()[4])
	}
}

func TestCommitWidthBounds(t *testing.T) {
	cfg := SmallConfig()
	cfg.CommitWidth = 1
	c, _ := build(t, cfg, func(b *asm.Builder) {
		for i := 0; i < 100; i++ {
			b.Op(isa.OpAdd, 3, 1, 2)
		}
		b.Halt()
	})
	mustRun(t, c, 100_000)
	// 101 instructions at 1/cycle commit: at least 101 cycles.
	if c.Cycle() < 101 {
		t.Errorf("cycles = %d, impossible with commit width 1", c.Cycle())
	}
}

func TestLSQCapacityBlocksFetch(t *testing.T) {
	cfg := SmallConfig()
	cfg.LSQSize = 2
	c, _ := build(t, cfg, func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		for i := 0; i < 8; i++ {
			b.Ld(isa.OpLd64, 2, 1, int32(i*4096))
		}
		b.Halt()
	})
	mustRun(t, c, 100_000)
	if c.Retired() != 10 {
		t.Errorf("retired = %d", c.Retired())
	}
}

// stepUntil steps c one cycle at a time until cond holds, failing the
// test if the core halts or runs 10k cycles first.
func stepUntil(t *testing.T, c *Core, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if c.Done() || c.Cycle() >= 10_000 {
			t.Fatalf("cycle %d: never reached %s", c.Cycle(), what)
		}
		c.Step()
	}
}

func TestIssuedHeadTakesNoIQSlot(t *testing.T) {
	// With a one-entry issue window, a load that has issued but waits at
	// the head for a memory miss must not occupy the window: the four
	// independent movis behind it issue one per cycle under the miss.
	// The load-only program commits load and halt together in the cycle
	// T the data lands. With the movis, commit (two wide) retires load
	// and movi 1 at T, movis 2-3 at T+1 and movi 4 with the halt at T+2:
	// exactly two cycles more. Had the issued load held the window, each
	// movi would issue only after the previous one committed.
	cfg := SmallConfig()
	cfg.IQSize = 1
	cfg.IssueWidth = 1
	run := func(movis int) uint64 {
		c, _ := build(t, cfg, func(b *asm.Builder) {
			b.Movi(1, 0x20000)
			b.Ld(isa.OpLd64, 2, 1, 0)
			for i := 0; i < movis; i++ {
				b.Movi(uint8(3+i), int32(i))
			}
			b.Halt()
		})
		mustRun(t, c, 10_000)
		return c.Cycle()
	}
	loadOnly, withMovis := run(0), run(4)
	if want := loadOnly + 2; withMovis != want {
		t.Errorf("cycles = %d, want %d (load-only run %d + 2)", withMovis, want, loadOnly)
	}
}

// squashGen builds a divide-fed branch that the cold predictor guesses
// taken but that falls through. The taken path sits in the already
// fetched first I-cache line; the branch and its fall-through share the
// second. Seqs: 0-2 the prologue, 3 div, 4 beq, then on the wrong path
// 5 a missing load P, 6 its consumer C, 7 a store, 8 halt; after the
// squash the fall-through reuses seqs (and slots) 5 and 6 for P' and C'.
func squashGen(b *asm.Builder) { squashProgram(b, 8) }

// parkGen is squashGen with the wrong-path store taking its value from
// C, so while C waits for P's data the store is parked on C's chain.
func parkGen(b *asm.Builder) { squashProgram(b, 4) }

// squashProgram emits squashGen with the wrong-path store writing
// register val.
func squashProgram(b *asm.Builder, val uint8) {
	b.Movi(1, 0x20000)
	b.Movi(8, 7)
	b.Jmp("main")
	b.Label("wrong")
	b.Ld(isa.OpLd64, 3, 1, 0)  // P: misses to DRAM
	b.Opi(isa.OpAddi, 4, 3, 1) // C: waits for P's data
	b.St(isa.OpSt64, val, 1, 8)
	b.Halt()
	b.Nop() // pads main to the start of the second line
	b.Label("main")
	b.Op(isa.OpDiv, 2, 8, 8) // r2 = 1 after 20 cycles
	b.Br(isa.OpBeq, 2, isa.RegZero, "wrong")
	b.Movi(6, 5)               // P'
	b.Opi(isa.OpAddi, 7, 6, 1) // C'
	b.Halt()
}

func TestSquashedWaiterSlotReissuesOnTime(t *testing.T) {
	c, _ := build(t, SmallConfig(), squashGen)
	const cSeq = 6
	// Run until the wrong-path consumer waits for its load's data.
	stepUntil(t, c, "a waiting wrong-path consumer", func() bool {
		e := c.slot(cSeq)
		return c.nextSeq > cSeq && e.seq == cSeq && !e.issued && c.waits[cSeq].wakeAt > c.Cycle()
	})
	stale := c.waits[cSeq].wakeAt
	stepUntil(t, c, "the mispredict squash", func() bool { return c.stats.Squashes > 0 })
	if c.nextSeq > cSeq {
		t.Fatalf("consumer slot not squashed: nextSeq = %d", c.nextSeq)
	}
	stepUntil(t, c, "the refetch of C'", func() bool { return c.nextSeq > cSeq })
	stepUntil(t, c, "the issue of C'", func() bool { return c.slot(cSeq).issued })
	issuedAt := c.Cycle() - 1
	// C' issues in the cycle P''s result lands, long before the data the
	// squashed consumer was waiting for.
	if want := c.slot(cSeq - 1).readyAt; issuedAt != want {
		t.Errorf("C' issued at cycle %d, want %d (when P' lands)", issuedAt, want)
	}
	if issuedAt >= stale {
		t.Errorf("C' issued at %d, not before the squashed consumer's wake cycle %d", issuedAt, stale)
	}
	mustRun(t, c, 10_000)
	if r := c.Regs(); r[7] != 6 || r[4] != 0 {
		t.Errorf("r7 = %d, r4 = %d; want 6 and 0", r[7], r[4])
	}
}

func TestROBNonPowerOfTwoCapacity(t *testing.T) {
	// A ROB of 24 lives in a 32-slot ring but must fill at 24 behind a
	// pointer chase of DRAM misses at the head.
	cfg := SmallConfig()
	cfg.ROBSize = 24
	cfg.IQSize = 24
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(1, 0x20000)
		for i := 0; i < 6; i++ {
			b.Ld(isa.OpLd64, 1, 1, 0)
		}
		for i := 0; i < 40; i++ {
			b.Movi(uint8(2+i%20), int32(i))
		}
		b.Halt()
	})
	for i := uint64(0); i < 6; i++ {
		mach.Mem.Write(0x20000+i<<12, 8, 0x20000+(i+1)<<12)
	}
	most := 0
	stepUntil(t, c, "the halt", func() bool {
		most = max(most, c.count)
		return c.Done()
	})
	if len(c.rob) != 32 {
		t.Errorf("ring has %d slots, want 32", len(c.rob))
	}
	if most != 24 {
		t.Errorf("peak occupancy %d, want 24", most)
	}
	if c.Stats().ROBFullCycles == 0 {
		t.Error("ROB never reported full")
	}
	if c.Regs()[1] != 0x26000 {
		t.Errorf("r1 = %#x, want 0x26000", c.Regs()[1])
	}
}

func TestResetMidSquashMatchesFresh(t *testing.T) {
	// Stop a run while its mispredicted path is in flight — the load,
	// the consumer waiting for it and the store — before the squash
	// lands, then reset: the core must equal, and run exactly like, a
	// fresh one. At the first stop the consumer is timed on the load's
	// data; at the second the store, which takes its value from the
	// consumer, is parked on the consumer's waiter chain as well.
	for _, tc := range []struct {
		name string
		gen  func(*asm.Builder)
		stop func(c *Core) bool
	}{
		{"timed", squashGen, func(c *Core) bool {
			return c.stores > 0 && c.waits[6].wakeAt > c.Cycle()
		}},
		{"parked", parkGen, func(c *Core) bool {
			return c.stores > 0 && c.waiters[6] == 7+1 && hasBit(c.timed, 6)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			used, mach := build(t, SmallConfig(), tc.gen)
			stepUntil(t, used, "the in-flight wrong path", func() bool { return tc.stop(used) })
			if used.stats.Squashes != 0 || used.issueSeq == 0 || used.wakeMin == 0 {
				t.Fatalf("not mid-squash: squashes=%d issueSeq=%d wakeMin=%d",
					used.stats.Squashes, used.issueSeq, used.wakeMin)
			}
			fresh, _ := build(t, SmallConfig(), tc.gen)
			prog := assemble(t, tc.gen)
			mach.Reset()
			prog.Load(mach.Mem)
			used.Reset(prog.Entry)

			// Ring slots and their wait records may keep stale entries
			// (fetch overwrites both whole); everything else, the window's
			// bit sets and chain heads included, must match, the
			// frontend's decode memo aside.
			strip := func(c *Core) Core {
				s := *c
				s.m, s.fe, s.rob, s.waits = nil, nil, nil, nil
				return s
			}
			if a, b := strip(used), strip(fresh); !reflect.DeepEqual(a, b) {
				t.Errorf("reset core differs from fresh:\n%+v\n%+v", a, b)
			}
			mustRun(t, used, 10_000)
			mustRun(t, fresh, 10_000)
			if !reflect.DeepEqual(used.Stats(), fresh.Stats()) || used.Regs() != fresh.Regs() {
				t.Errorf("reset run differs from fresh:\n%+v\n%+v", *used.Stats(), *fresh.Stats())
			}
		})
	}
}
