package sim

import (
	"strconv"
	"testing"

	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/progen"
)

// genProgram and genFaultProgram are the differential suites' program
// sources (see package progen).
var (
	genProgram      = progen.Program
	genFaultProgram = progen.ProgramNoTx
)

func itoa(n int) string { return strconv.Itoa(n) }

// runFuzzSeed checks golden-model equivalence for one random program.
func runFuzzSeed(t *testing.T, seed int64, nstmt int) {
	t.Helper()
	prog, err := genProgram(seed, nstmt)
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	emu, goldMem, err := RunEmulator(prog, 50_000_000)
	if err != nil {
		t.Fatalf("seed %d: emulator: %v", seed, err)
	}
	opts := DefaultOptions()
	opts.MaxCycles = 500_000_000
	for _, k := range Kinds {
		out, err := Run(k, prog, opts)
		if err != nil {
			t.Fatalf("seed %d: %v: %v", seed, k, err)
		}
		if out.Retired != emu.Executed {
			t.Errorf("seed %d: %v retired %d, golden %d", seed, k, out.Retired, emu.Executed)
		}
		bad := false
		for r := 1; r < isa.NumRegs; r++ {
			if out.Regs[r] != emu.Reg[r] {
				t.Errorf("seed %d: %v r%d=%#x golden %#x", seed, k, r, uint64(out.Regs[r]), uint64(emu.Reg[r]))
				bad = true
			}
		}
		if !out.Mem.Equal(goldMem) {
			t.Errorf("seed %d: %v memory mismatch at %#x...", seed, k, out.Mem.Diff(goldMem, 4))
			bad = true
		}
		if bad {
			t.FailNow()
		}
	}
}

// TestFuzzEquivalenceQuick runs a batch of random programs on every core
// model and checks them against the golden functional model.
func TestFuzzEquivalenceQuick(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		runFuzzSeed(t, seed, 80)
	}
}

// TestFuzzEquivalenceDeep runs fewer but much larger random programs.
func TestFuzzEquivalenceDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for seed := int64(1000); seed < 1010; seed++ {
		runFuzzSeed(t, seed, 600)
	}
}

// TestFuzzSmallCaches repeats the fuzz check on a tiny hierarchy so that
// capacity misses, evictions and writebacks happen constantly.
func TestFuzzSmallCaches(t *testing.T) {
	prog, err := genProgram(42, 300)
	if err != nil {
		t.Fatal(err)
	}
	emu, goldMem, err := RunEmulator(prog, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Hier.L1D = mem.CacheConfig{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 4}
	opts.Hier.L1I = mem.CacheConfig{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 2}
	opts.Hier.L2 = mem.CacheConfig{Name: "L2", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, HitLatency: 12, MSHRs: 8}
	opts.MaxCycles = 500_000_000
	for _, k := range Kinds {
		out, err := Run(k, prog, opts)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if out.Retired != emu.Executed {
			t.Errorf("%v: retired %d, golden %d", k, out.Retired, emu.Executed)
		}
		if !out.Mem.Equal(goldMem) {
			t.Errorf("%v: memory mismatch", k)
		}
	}
}
