package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"rocksim/internal/asm"
	"rocksim/internal/cpu"
)

// TestSimTimeout: a non-terminating program under a wall-clock Timeout
// returns ErrDeadline in bounded time instead of grinding through the
// full two-billion-cycle budget.
func TestSimTimeout(t *testing.T) {
	prog := mustAssemble(t, `
		.org 0x10000
	loop:
		j loop
	`)
	opts := DefaultOptions()
	opts.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err := Run(KindSST, prog, opts)
	if !errors.Is(err, cpu.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline enforcement took %v", elapsed)
	}
}

// TestSimLivelockWindow: with the no-activity window tightened below a
// single DRAM round trip (300 cycles unloaded), the first compulsory
// miss stalls the core long enough to trip the detector — demonstrating
// the watchdog catches a starved pipeline and attributes the failure.
func TestSimLivelockWindow(t *testing.T) {
	prog := mustAssemble(t, `
		.org 0x10000
		movi r5, 0x4000
		ld64 r6, (r5)
		halt
	`)
	opts := DefaultOptions()
	opts.LivelockWindow = 64
	_, err := Run(KindInOrder, prog, opts)
	if !errors.Is(err, cpu.ErrLivelock) {
		t.Fatalf("want ErrLivelock with a 64-cycle window, got %v", err)
	}
}

// TestSimDefaultWindowPermitsRealWorkloads: the default livelock window
// must not false-positive on an ordinary run (the pointer-chase case —
// millions of cycles between bulk commits — is covered by the workload
// equivalence tests, which run with the watchdog at defaults).
func TestSimDefaultWindowPermitsRealWorkloads(t *testing.T) {
	prog, err := genProgram(3, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds {
		if _, err := Run(k, prog, DefaultOptions()); err != nil {
			t.Errorf("%v: unexpected watchdog error: %v", k, err)
		}
	}
}

// TestMultiThreadWatchdogs: SMT pairs and chips run under the same
// watchdogs as a single core and fail with the same sentinel errors — a
// wall-clock Timeout, a livelock window and the cycle budget.
func TestMultiThreadWatchdogs(t *testing.T) {
	spin := mustAssemble(t, `
		.org 0x10000
	loop:
		j loop
	`)
	// A compulsory DRAM miss stalls an in-order strand for a whole round
	// trip (300 cycles unloaded): with both strands waiting on one, a
	// 64-cycle window sees no activity at all.
	stall := mustAssemble(t, `
		.org 0x10000
		movi r5, 0x4000
		ld64 r6, (r5)
		halt
	`)
	for _, tc := range []struct {
		name string
		cell Cell
		opts func(*Options)
		want error
	}{
		{"cmp-deadline", Cell{Kind: KindSST, Topo: TopoCMP, Progs: []*asm.Program{spin, spin}},
			func(o *Options) { o.Timeout = 50 * time.Millisecond }, cpu.ErrDeadline},
		{"smt-livelock", Cell{Kind: KindInOrder, Topo: TopoSMT, Progs: []*asm.Program{stall, stall}},
			func(o *Options) { o.LivelockWindow = 64 }, cpu.ErrLivelock},
		{"cmp-cycle-limit", Cell{Kind: KindInOrder, Topo: TopoCMP, Progs: []*asm.Program{spin, spin, spin}},
			func(o *Options) { o.MaxCycles = 1000 }, cpu.ErrCycleLimit},
		{"shared-cmp-cycle-limit", Cell{Kind: KindSST, Topo: TopoSharedCMP, Progs: []*asm.Program{spin}, Entries: []uint64{0x10000, 0x10000}},
			func(o *Options) { o.MaxCycles = 1000 }, cpu.ErrCycleLimit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.opts(&opts)
			in, err := NewInstance(tc.cell.Shape(), opts)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := in.Run(context.Background(), tc.cell, opts); !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
			if elapsed := time.Since(start); elapsed > 10*time.Second {
				t.Errorf("watchdog took %v", elapsed)
			}
		})
	}
}
