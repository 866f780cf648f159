package sim

import (
	"strconv"
	"testing"

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

// runFuzzSeed runs the emulator oracle over one random program on every
// core kind.
func runFuzzSeed(t *testing.T, seed int64, nstmt int) {
	t.Helper()
	prog, err := genProgram(seed, nstmt)
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	checkEmu(t, kindCases("seed "+itoa(int(seed)), prog, fuzzFaultOpts(), nil)...)
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
	opts := fuzzFaultOpts()
	opts.Hier.L1D = mem.CacheConfig{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitLatency: 2, MSHRs: 4}
	opts.Hier.L1I = mem.CacheConfig{Name: "L1I", SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitLatency: 1, MSHRs: 2}
	opts.Hier.L2 = mem.CacheConfig{Name: "L2", SizeBytes: 8 << 10, Ways: 4, LineBytes: 64, HitLatency: 12, MSHRs: 8}
	checkEmu(t, kindCases("small caches", prog, opts, nil)...)
}
