package core

import (
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// testHier is a small hierarchy with a long, round DRAM latency so miss
// timing is easy to reason about.
func testHier() mem.HierConfig {
	return mem.HierConfig{
		L1I:     mem.CacheConfig{Name: "L1I", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 4},
		L1D:     mem.CacheConfig{Name: "L1D", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 8},
		L2:      mem.CacheConfig{Name: "L2", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64, HitLatency: 10, MSHRs: 16},
		L2Banks: 2,
		DRAM:    mem.DRAMConfig{Latency: 200, Banks: 4, BankBusy: 8},
	}
}

// executeAheadConfig is the ablation without the second strand: the DQ
// replays through the same pipeline that executes ahead. (The simulator
// builds its sst-ea kind itself.)
func executeAheadConfig() Config {
	c := DefaultConfig()
	c.SecondStrand = false
	return c
}

// build creates an SST core running the given builder-produced program.
func build(t *testing.T, cfg Config, gen func(b *asm.Builder)) (*Core, *cpu.Machine) {
	t.Helper()
	b := asm.NewBuilder(asm.DefaultTextBase)
	gen(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewSparse()
	prog.Load(m)
	mach, err := cpu.NewMachine(m, testHier(), bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(mach, cfg, prog.Entry), mach
}

func run(t *testing.T, c *Core, maxCycles uint64) {
	t.Helper()
	if err := cpu.Run(c, maxCycles); err != nil {
		t.Fatalf("run: %v\n%s", err, c.DebugDump())
	}
}

func stepUntil(t *testing.T, c *Core, max int, cond func() bool) {
	t.Helper()
	for i := 0; i < max; i++ {
		if cond() {
			return
		}
		c.Step()
		if c.Err() != nil {
			t.Fatalf("core error: %v", c.Err())
		}
	}
	t.Fatalf("condition not reached in %d cycles\n%s", max, c.DebugDump())
}

// TestMissOpensEpoch: a load miss takes a checkpoint, marks the dest NA,
// and execution continues speculatively past it.
func TestMissOpensEpoch(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0) // misses
		b.Movi(7, 99)             // independent: should execute under the miss
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool { return c.Mode() == ModeSpec })
	if c.Stats().CheckpointsTaken != 1 {
		t.Errorf("checkpoints = %d", c.Stats().CheckpointsTaken)
	}
	if !c.na[6] {
		t.Error("r6 not NA under miss")
	}
	// The independent movi executes while the miss is outstanding.
	stepUntil(t, c, 2000, func() bool { return c.regs[7] == 99 })
	if c.Mode() != ModeSpec {
		t.Error("left spec mode too early")
	}
	run(t, c, 10_000)
	if c.Stats().EpochCommits == 0 {
		t.Error("no epoch commits")
	}
	if c.Stats().Rollbacks != 0 {
		t.Errorf("unexpected rollbacks: %d", c.Stats().Rollbacks)
	}
}

// TestDependentsDeferred: instructions reading an NA register land in
// the DQ with captured operands and replay once the miss returns.
func TestDependentsDeferred(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)  // miss -> r6 NA
		b.Opi(isa.OpAddi, 7, 6, 1) // dependent -> deferred
		b.Op(isa.OpAdd, 8, 7, 7)   // transitively dependent -> deferred
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool { return len(c.dq) == 2 })
	if !c.na[7] || !c.na[8] {
		t.Error("NA propagation failed")
	}
	run(t, c, 10_000)
	if c.Stats().Replays != 2 {
		t.Errorf("replays = %d, want 2", c.Stats().Replays)
	}
	if c.regs[7] != 1 || c.regs[8] != 2 {
		t.Errorf("r7=%d r8=%d", c.regs[7], c.regs[8])
	}
	if c.Retired() != 5 {
		t.Errorf("retired = %d, want 5", c.Retired())
	}
}

// TestIndependentMissesOverlap: two loads to different lines issue under
// one another (MLP), which is SST's whole point.
func TestIndependentMissesOverlap(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(6, 0x30000)
		b.Ld(isa.OpLd64, 7, 5, 0)
		b.Ld(isa.OpLd64, 8, 6, 0)
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool {
		return mach.Hier.OutstandingDataMisses(0, c.Cycle()) >= 2
	})
	run(t, c, 10_000)
	// Both misses overlapped: total time ≈ one miss, not two.
	if c.Cycle() > 600 {
		t.Errorf("cycles = %d; misses did not overlap", c.Cycle())
	}
}

// TestSSBForwarding: a speculative store is visible to younger
// speculative loads but not to memory until commit.
func TestSSBForwarding(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0) // miss: opens the epoch
		b.Movi(7, 0x777)
		b.St(isa.OpSt64, 7, 5, 128) // speculative store (same line region)
		b.Ld(isa.OpLd64, 8, 5, 128) // must forward 0x777 from the SSB
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool { return len(c.ssb) > 0 })
	if got := mach.Mem.Read(0x20000+128, 8); got != 0 {
		t.Errorf("speculative store leaked to memory: %#x", got)
	}
	run(t, c, 10_000)
	if c.regs[8] != 0x777 {
		t.Errorf("r8 = %#x, want forwarded 0x777", c.regs[8])
	}
	if got := mach.Mem.Read(0x20000+128, 8); got != 0x777 {
		t.Errorf("store not drained at commit: %#x", got)
	}
}

// TestDeferredBranchMispredictRollsBack: an unpredictable branch that
// depends on a miss and resolves against its prediction costs a
// rollback, after which re-execution takes the correct path.
func TestDeferredBranchMispredictRollsBack(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)               // miss; memory holds 1
		b.Br(isa.OpBeq, 6, isa.RegZero, "zero") // depends on miss
		b.Movi(7, 111)                          // correct path (r6==1)
		b.Jmp("end")
		b.Label("zero")
		b.Movi(7, 222)
		b.Label("end")
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 1)
	// Gshare initializes weakly-taken, so the deferred beq predicts
	// taken ("zero" path) and must roll back at replay.
	run(t, c, 10_000)
	if c.regs[7] != 111 {
		t.Errorf("r7 = %d, want 111 (correct path)", c.regs[7])
	}
	if c.Stats().RollbacksBy[RbBranch] == 0 {
		t.Error("no branch rollback recorded")
	}
	if c.Stats().DiscardedInsts == 0 {
		t.Error("no discarded work recorded")
	}
}

// TestDeferredBranchCorrectPredictionCommits: a predictable deferred
// branch verifies cleanly with no rollback.
func TestDeferredBranchCorrectPredictionCommits(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Br(isa.OpBeq, 6, isa.RegZero, "zero")
		b.Movi(7, 111)
		b.Jmp("end")
		b.Label("zero")
		b.Movi(7, 222)
		b.Label("end")
		b.Halt()
	})
	_ = mach // memory holds 0: beq taken, matching the weakly-taken init
	run(t, c, 10_000)
	if c.regs[7] != 222 {
		t.Errorf("r7 = %d, want 222", c.regs[7])
	}
	if c.Stats().Rollbacks != 0 {
		t.Errorf("rollbacks = %d, want 0", c.Stats().Rollbacks)
	}
	if c.Stats().DeferredBranches == 0 {
		t.Error("branch was not deferred")
	}
}

// TestMemOrderViolationRollsBack: a deferred store with an unknown
// address that turns out to overlap a younger ahead-strand load forces a
// mem-order rollback, and the final value is architecturally correct.
func TestMemOrderViolationRollsBack(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(9, 0x4444)
		b.Ld(isa.OpLd64, 6, 5, 0)  // miss: loads the target offset (64)
		b.Op(isa.OpAdd, 7, 5, 6)   // address depends on miss -> NA
		b.St(isa.OpSt64, 9, 7, 0)  // store with NA address
		b.Ld(isa.OpLd64, 8, 5, 64) // ahead load of the same location!
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 64) // store target = 0x20000+64
	run(t, c, 10_000)
	if c.Stats().RollbacksBy[RbMemOrder] == 0 {
		t.Error("no mem-order rollback")
	}
	if c.regs[8] != 0x4444 {
		t.Errorf("r8 = %#x, want 0x4444 (store-to-load order)", c.regs[8])
	}
	if got := mach.Mem.Read(0x20000+64, 8); got != 0x4444 {
		t.Errorf("memory = %#x", got)
	}
}

// TestNoFalseMemOrderRollback: an unknown-address store that does NOT
// overlap the ahead loads verifies cleanly.
func TestNoFalseMemOrderRollback(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(9, 0x4444)
		b.Ld(isa.OpLd64, 6, 5, 0)  // miss: loads 4096
		b.Op(isa.OpAdd, 7, 5, 6)   // NA address
		b.St(isa.OpSt64, 9, 7, 0)  // store to 0x21000
		b.Ld(isa.OpLd64, 8, 5, 64) // different location
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 4096)
	run(t, c, 10_000)
	if c.Stats().RollbacksBy[RbMemOrder] != 0 {
		t.Error("false mem-order rollback")
	}
	if got := mach.Mem.Read(0x21000, 8); got != 0x4444 {
		t.Errorf("store lost: %#x", got)
	}
}

// TestAtomicsSerialize: cas under speculation stalls until all epochs
// commit, then executes non-speculatively.
func TestAtomicsSerialize(t *testing.T) {
	c, mach := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(10, 0x30000)
		b.Ld(isa.OpLd64, 6, 5, 0) // miss: speculating
		b.Movi(7, 0)              // compare
		b.Movi(8, 55)             // swap-in
		b.Cas(8, 10, 7)
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool { return c.Mode() == ModeSpec })
	stepUntil(t, c, 2000, func() bool { return c.Stats().AtomicStallCycles > 0 })
	if got := mach.Mem.Read(0x30000, 8); got != 0 {
		t.Error("cas executed speculatively")
	}
	run(t, c, 10_000)
	if got := mach.Mem.Read(0x30000, 8); got != 55 {
		t.Errorf("cas result = %d", got)
	}
}

// TestScoutModeOnDQZero: with no DQ, a miss triggers scout: independent
// later misses get prefetched, then everything re-executes.
func TestScoutModeOnDQZero(t *testing.T) {
	cfg := ScoutConfig()
	c, _ := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(9, 0x30000)
		b.Ld(isa.OpLd64, 6, 5, 0)  // trigger miss
		b.Opi(isa.OpAddi, 7, 6, 1) // dependent: cannot defer -> scout
		b.Ld(isa.OpLd64, 8, 9, 0)  // independent: prefetched during scout
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool { return c.Mode() == ModeScout })
	if c.Stats().ScoutEntries != 1 {
		t.Errorf("scout entries = %d", c.Stats().ScoutEntries)
	}
	run(t, c, 10_000)
	if c.Stats().RollbacksBy[RbScout] == 0 {
		t.Error("no scout rollback")
	}
	if c.regs[7] != 1 || c.regs[8] != 0 {
		t.Errorf("r7=%d r8=%d", c.regs[7], c.regs[8])
	}
	// The independent line was prefetched: total well under 2 misses.
	if c.Cycle() > 900 {
		t.Errorf("cycles = %d; scout prefetch ineffective", c.Cycle())
	}
}

// TestScoutDiscardsStores: stores executed in scout mode never reach
// memory, even after the rollback re-execution commits them properly.
func TestScoutDiscardsStores(t *testing.T) {
	cfg := ScoutConfig()
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(9, 77)
		b.Ld(isa.OpLd64, 6, 5, 0)  // trigger
		b.Opi(isa.OpAddi, 7, 6, 1) // forces scout
		b.St(isa.OpSt64, 9, 5, 256)
		b.Halt()
	})
	stepUntil(t, c, 2000, func() bool { return c.Mode() == ModeScout })
	// While scouting, the store must not be architecturally visible.
	for i := 0; i < 50 && !c.Done(); i++ {
		if c.Mode() == ModeScout && mach.Mem.Read(0x20000+256, 8) != 0 {
			t.Fatal("scout store reached memory")
		}
		c.Step()
	}
	run(t, c, 10_000)
	if got := mach.Mem.Read(0x20000+256, 8); got != 77 {
		t.Errorf("final store = %d, want 77", got)
	}
}

// TestForwardProgressAfterRollback: a deferred divide that fails
// speculation must not livelock the checkpoint/rollback loop.
func TestForwardProgressAfterRollback(t *testing.T) {
	cfg := ScoutConfig()
	cfg.DeferLongOps = true
	cfg.LongOpMinLatency = 10
	c, _ := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 100)
		b.Movi(6, 7)
		b.Op(isa.OpDiv, 7, 5, 6)   // long op: checkpoints
		b.Opi(isa.OpAddi, 8, 7, 1) // dependent: scout (DQ=0)
		b.Halt()
	})
	run(t, c, 10_000) // would hang forever without the guarantee
	if c.regs[8] != 15 {
		t.Errorf("r8 = %d, want 15", c.regs[8])
	}
}

// TestMultipleCheckpointsPartialRollback: with per-miss checkpoints, a
// deferred-branch mispredict in a later epoch preserves older epochs.
func TestMultipleCheckpointsPartialRollback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointOnDeferredBranch = false
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(9, 0x30000)
		b.Ld(isa.OpLd64, 6, 5, 0)                // epoch 1 (memory: 0)
		b.Ld(isa.OpLd64, 7, 9, 0)                // epoch 2 (memory: 1)
		b.Br(isa.OpBne, 7, isa.RegZero, "taken") // epoch-2 branch; init pred is taken -> correct? bne on 1 is taken; weakly-taken init predicts taken -> no rollback. Flip it:
		b.Label("taken")
		b.Br(isa.OpBeq, 7, isa.RegZero, "dead") // on 1: not taken; predicted taken -> rollback in epoch 2
		b.Opi(isa.OpAddi, 8, 6, 5)
		b.Halt()
		b.Label("dead")
		b.Movi(8, 999)
		b.Halt()
	})
	mach.Mem.Write(0x30000, 8, 1)
	run(t, c, 10_000)
	if c.regs[8] != 5 {
		t.Errorf("r8 = %d, want 5", c.regs[8])
	}
	if c.Stats().RollbacksBy[RbBranch] == 0 {
		t.Error("expected a branch rollback")
	}
	// Epoch 1's work survived (it committed rather than being undone).
	if c.Stats().EpochCommits < 1 {
		t.Errorf("epoch commits = %d", c.Stats().EpochCommits)
	}
}

// TestDeliveredValueHealsCheckpoints: a fill arriving while younger
// checkpoints exist must clear their NA copies too, so a later rollback
// does not resurrect a never-deliverable NA register.
func TestDeliveredValueHealsCheckpoints(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointOnDeferredBranch = true
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(9, 0x30000)
		b.Ld(isa.OpLd64, 6, 5, 0)               // miss 1: r6 (value 3)
		b.Ld(isa.OpLd64, 7, 9, 0)               // miss 2: r7 (value 1)
		b.Br(isa.OpBeq, 7, isa.RegZero, "dead") // deferred, mispredicted (pred taken, actual not)
		b.Op(isa.OpAdd, 8, 6, 7)                // uses both
		b.Halt()
		b.Label("dead")
		b.Movi(8, 999)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 3)
	mach.Mem.Write(0x30000, 8, 1)
	run(t, c, 10_000)
	if c.regs[8] != 4 {
		t.Errorf("r8 = %d, want 4", c.regs[8])
	}
}

// TestEAOnlySharesSlots: the execute-ahead ablation makes progress and
// matches architectural results, with replay stealing ahead slots.
func TestEAOnlySharesSlots(t *testing.T) {
	cfg := executeAheadConfig()
	c, _ := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(9, 0)
		b.Movi(10, 8)
		b.Label("loop")
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Op(isa.OpAdd, 9, 9, 6)
		b.Opi(isa.OpAddi, 5, 5, 4096)
		b.Opi(isa.OpAddi, 10, 10, -1)
		b.Br(isa.OpBne, 10, isa.RegZero, "loop")
		b.Halt()
	})
	run(t, c, 100_000)
	if c.Stats().Replays == 0 {
		t.Error("EA config never replayed")
	}
	if c.Retired() != 3+8*5+1 {
		t.Errorf("retired = %d", c.Retired())
	}
}

// TestSSBOverflowRollsBack: replaying a store into a full SSB fails
// speculation rather than deadlocking, and re-execution completes.
func TestSSBOverflowRollsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SSBSize = 2
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0) // miss
		// Three dependent-data stores -> all deferred; replay overflows
		// the 2-entry SSB.
		b.St(isa.OpSt64, 6, 5, 256)
		b.St(isa.OpSt64, 6, 5, 264)
		b.St(isa.OpSt64, 6, 5, 272)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 42)
	run(t, c, 100_000)
	for off := uint64(256); off <= 272; off += 8 {
		if got := mach.Mem.Read(0x20000+off, 8); got != 42 {
			t.Errorf("store at +%d = %d", off, got)
		}
	}
	if c.Stats().RollbacksBy[RbSSB] == 0 {
		t.Error("no SSB rollback recorded")
	}
}

// TestZeroCheckpointsDegradesToStallOnUse: with no checkpoints the core
// is still correct (scoreboard only) and never speculates.
func TestZeroCheckpointsDegradesToStallOnUse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkpoints = 0
	c, mach := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Opi(isa.OpAddi, 7, 6, 1)
		b.Halt()
	})
	mach.Mem.Write(0x20000, 8, 9)
	run(t, c, 10_000)
	if c.Stats().CheckpointsTaken != 0 {
		t.Error("checkpointed with Checkpoints=0")
	}
	if c.regs[7] != 10 {
		t.Errorf("r7 = %d", c.regs[7])
	}
}

// TestRetiredMatchesGolden: the architectural retirement count equals
// the functional emulator's, including across rollbacks and scouts.
func TestRetiredMatchesGolden(t *testing.T) {
	gen := func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Movi(10, 20)
		b.Movi(9, 0)
		b.Label("loop")
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Opi(isa.OpAndi, 7, 6, 1)
		b.Br(isa.OpBeq, 7, isa.RegZero, "even")
		b.Opi(isa.OpAddi, 9, 9, 3)
		b.Jmp("next")
		b.Label("even")
		b.Opi(isa.OpAddi, 9, 9, 1)
		b.Label("next")
		b.St(isa.OpSt64, 9, 5, 8)
		b.Opi(isa.OpAddi, 5, 5, 64)
		b.Opi(isa.OpAddi, 10, 10, -1)
		b.Br(isa.OpBne, 10, isa.RegZero, "loop")
		b.Halt()
	}
	b := asm.NewBuilder(asm.DefaultTextBase)
	gen(b)
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	gm := mem.NewSparse()
	prog.Load(gm)
	// Pseudo-random line contents so branches are data-dependent.
	for i := uint64(0); i < 20; i++ {
		gm.Write(0x20000+i*64, 8, i*i*2654435761)
	}
	emu := isa.NewEmulator(prog.Entry, gm)
	if err := emu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultConfig(), executeAheadConfig(), ScoutConfig()} {
		m := mem.NewSparse()
		prog.Load(m)
		for i := uint64(0); i < 20; i++ {
			m.Write(0x20000+i*64, 8, i*i*2654435761)
		}
		mach, err := cpu.NewMachine(m, testHier(), bpred.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := New(mach, cfg, prog.Entry)
		run(t, c, 1_000_000)
		if c.Retired() != emu.Executed {
			t.Errorf("cfg %+v: retired %d, golden %d", cfg, c.Retired(), emu.Executed)
		}
	}
}

// TestDQOccupancyBounded: the deferred queue never exceeds its
// configured capacity.
func TestDQOccupancyBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DQSize = 4
	c, _ := build(t, cfg, func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)
		for i := 0; i < 12; i++ {
			b.Opi(isa.OpAddi, 7, 6, int32(i)) // all dependent
		}
		b.Halt()
	})
	for i := 0; i < 2000 && !c.Done(); i++ {
		c.Step()
		if len(c.dq) > 4 {
			t.Fatalf("DQ occupancy %d > 4", len(c.dq))
		}
	}
	if !c.Done() {
		t.Fatalf("not done\n%s", c.DebugDump())
	}
	if c.Stats().DQFullStallCycles == 0 {
		t.Error("expected DQ-full stalls")
	}
}

// TestStatsOccupancyHistograms: histograms are populated.
func TestStatsOccupancyHistograms(t *testing.T) {
	c, _ := build(t, DefaultConfig(), func(b *asm.Builder) {
		b.Movi(5, 0x20000)
		b.Ld(isa.OpLd64, 6, 5, 0)
		b.Opi(isa.OpAddi, 7, 6, 1)
		b.Halt()
	})
	run(t, c, 10_000)
	st := c.Stats()
	if st.DQOcc.Count() == 0 || st.CkptOcc.Count() == 0 {
		t.Error("occupancy histograms empty")
	}
	if st.ModeCycles[CyNormal] == 0 {
		t.Error("no normal cycles recorded")
	}
}
