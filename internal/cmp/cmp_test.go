package cmp

import (
	"errors"
	"fmt"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/cpu"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
)

func hcfg() mem.HierConfig {
	return mem.HierConfig{
		L1I:     mem.CacheConfig{Name: "L1I", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 4},
		L1D:     mem.CacheConfig{Name: "L1D", SizeBytes: 4 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 8},
		L2:      mem.CacheConfig{Name: "L2", SizeBytes: 64 << 10, Ways: 4, LineBytes: 64, HitLatency: 10, MSHRs: 16},
		L2Banks: 2,
		DRAM:    mem.DRAMConfig{Latency: 150, Banks: 4, BankBusy: 8},
	}
}

func buildInOrder(id int, m *cpu.Machine, entry uint64) (cpu.Core, error) {
	return inorder.New(m, inorder.DefaultConfig(), entry), nil
}

func simpleProg(t *testing.T, result int64) *asm.Program {
	t.Helper()
	src := fmt.Sprintf(`
		movi r1, %d
		movi r2, 0
	loop:	add r2, r2, r1
		addi r1, r1, -1
		bne r1, zero, loop
		st64 r2, 0x100(zero)
		halt
	`, result)
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPrivateChipRunsAllCores(t *testing.T) {
	progs := []*asm.Program{simpleProg(t, 10), simpleProg(t, 20), simpleProg(t, 30)}
	chip, err := NewPrivate(hcfg(), bpred.DefaultConfig(), progs, buildInOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, 1_000_000); err != nil {
		t.Fatal(err)
	}
	wants := []uint64{55, 210, 465}
	for i, w := range wants {
		if got := chip.Machines[i].Mem.Read(0x100, 8); got != w {
			t.Errorf("core %d result = %d, want %d", i, got, w)
		}
	}
	if chip.Retired() == 0 || chip.Throughput() <= 0 {
		t.Error("empty aggregate stats")
	}
	if chip.Cycle() == 0 {
		t.Error("no cycles")
	}
}

func TestPrivateChipIsolation(t *testing.T) {
	// Identical programs in private memories must not share timing
	// state in the L2 (address salting): total DRAM reads scale with
	// core count instead of being absorbed by sharing.
	mk := func(n int) uint64 {
		progs := make([]*asm.Program, n)
		for i := range progs {
			progs[i] = simpleProg(t, 50)
		}
		chip, err := NewPrivate(hcfg(), bpred.DefaultConfig(), progs, buildInOrder)
		if err != nil {
			t.Fatal(err)
		}
		if err := cpu.Run(chip, 1_000_000); err != nil {
			t.Fatal(err)
		}
		return chip.Hier.DRAM().Stats.Reads
	}
	r1, r4 := mk(1), mk(4)
	if r4 < 3*r1 {
		t.Errorf("dram reads: 1 core %d, 4 cores %d — footprints shared", r1, r4)
	}
}

func TestSharedChipProducerConsumer(t *testing.T) {
	// Core 0 writes a value then sets a flag with a cas; core 1 spins on
	// the flag and reads the value. Exercises coherence invalidation.
	src := `
		.org 0x10000
	producer:
		movi r5, 0x20000
		movi r6, 4242
		st64 r6, 8(r5)       ; data
		membar
		movi r7, 1
		st64 r7, (r5)        ; flag
		halt
	consumer:
		movi r5, 0x20000
	spin:	ld64 r6, (r5)
		beq  r6, zero, spin
		ld64 r7, 8(r5)       ; data must be visible
		st64 r7, 16(r5)
		halt
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := prog.Symbol("producer")
	cons, _ := prog.Symbol("consumer")
	chip, err := NewShared(hcfg(), bpred.DefaultConfig(), prog, []uint64{prod, cons}, buildInOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := chip.Machines[0].Mem.Read(0x20010, 8); got != 4242 {
		t.Errorf("consumer read %d, want 4242", got)
	}
	if chip.Hier.Stats.CoherenceInvals == 0 {
		t.Error("no coherence invalidations in producer/consumer")
	}
}

func TestSharedChipSSTProducerConsumer(t *testing.T) {
	// The same handshake with SST cores: speculative stores must not
	// become visible early, and the consumer still observes order.
	src := `
		.org 0x10000
	producer:
		movi r5, 0x20000
		movi r6, 777
		st64 r6, 8(r5)
		membar
		movi r7, 1
		st64 r7, (r5)
		halt
	consumer:
		movi r5, 0x20000
	spin:	ld64 r6, (r5)
		beq  r6, zero, spin
		ld64 r7, 8(r5)
		st64 r7, 16(r5)
		halt
	`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := prog.Symbol("producer")
	cons, _ := prog.Symbol("consumer")
	chip, err := NewShared(hcfg(), bpred.DefaultConfig(), prog, []uint64{prod, cons},
		func(id int, m *cpu.Machine, entry uint64) (cpu.Core, error) {
			return core.New(m, core.DefaultConfig(), entry), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, 5_000_000); err != nil {
		t.Fatal(err)
	}
	if got := chip.Machines[0].Mem.Read(0x20010, 8); got != 777 {
		t.Errorf("consumer read %d, want 777", got)
	}
}

func TestChipCycleLimit(t *testing.T) {
	p, err := asm.Assemble("loop: j loop")
	if err != nil {
		t.Fatal(err)
	}
	chip, err := NewPrivate(hcfg(), bpred.DefaultConfig(), []*asm.Program{p}, buildInOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(chip, 1000); !errors.Is(err, cpu.ErrCycleLimit) {
		t.Errorf("want cpu.ErrCycleLimit, got %v", err)
	}
}

func TestEmptyChipRejected(t *testing.T) {
	if _, err := NewPrivate(hcfg(), bpred.DefaultConfig(), nil, buildInOrder); err == nil {
		t.Error("accepted empty program list")
	}
	p := simpleProg(t, 1)
	if _, err := NewShared(hcfg(), bpred.DefaultConfig(), p, nil, buildInOrder); err == nil {
		t.Error("accepted empty entry list")
	}
}
