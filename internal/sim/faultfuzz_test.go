package sim

import (
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/faults"
)

// fuzzFaultOpts returns the options used by the fault-fuzz oracle runs.
func fuzzFaultOpts() Options {
	opts := DefaultOptions()
	opts.MaxCycles = 500_000_000
	return opts
}

// faultHorizon spans the cycle range of a typical generated program, so
// random plans land their events inside the portion that executes.
const faultHorizon = 20_000

// checkFaultSeed is the fault oracle: the emulator oracle over one
// (program, plan) pair on one core kind, shrinking a failure to a
// minimal reproducer before reporting it.
func checkFaultSeed(t *testing.T, k Kind, seed int64, nstmt int, plan *faults.Plan) {
	t.Helper()
	checkShrunk(t, "kind="+k.String(), genFaultProgram, seed, nstmt, plan, func(prog *asm.Program, p *faults.Plan) error {
		_, err := emuCheck(simCase{name: k.String(), cell: CoreCell(k, prog), opts: fuzzFaultOpts(), plan: p})
		return err
	})
}

// TestFaultFuzzEquivalence is the fault-fuzz oracle: hundreds of seeded
// (random program, random benign fault plan) pairs per core kind, each
// required to commit exactly the golden model's architectural state.
// Fault plans vary with the seed; programs come from the plain
// equivalence fuzz's generator minus transactions (a capacity fault
// aborting a transaction is architecturally visible by design, so tx
// blocks are exercised only by the unfaulted fuzz).
func TestFaultFuzzEquivalence(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 25
	}
	for _, k := range Kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= n; seed++ {
				checkFaultSeed(t, k, seed, 80, faults.Random(seed, faultHorizon))
			}
		})
	}
}

// TestFaultFuzzSmoke is the bounded fixed-seed subset wired into the
// Makefile's fault-fuzz target: a fast always-on smoke of the oracle.
func TestFaultFuzzSmoke(t *testing.T) {
	for _, k := range Kinds {
		for seed := int64(1); seed <= 8; seed++ {
			checkFaultSeed(t, k, seed, 60, faults.Random(seed, faultHorizon))
		}
	}
}

// TestFaultedRunDeterministic: a faulted run is exactly reproducible —
// same program, same plan, same cycle count and architectural state.
func TestFaultedRunDeterministic(t *testing.T) {
	prog, err := genFaultProgram(7, 120)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Random(7, faultHorizon)
	a, err := Run(KindSST, prog, withPlan(fuzzFaultOpts(), plan))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(KindSST, prog, withPlan(fuzzFaultOpts(), plan))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Retired != b.Retired || a.Regs != b.Regs {
		t.Errorf("faulted run not reproducible: %d/%d cycles, %d/%d retired",
			a.Cycles, b.Cycles, a.Retired, b.Retired)
	}
}

func withPlan(opts Options, plan *faults.Plan) Options {
	opts.Faults = plan
	return opts
}

// TestFaultOracleTeeth proves the oracle can actually fail: skip-restore
// deliberately breaks the rollback contract (registers keep their
// speculative values), and under a mispredict storm that forces frequent
// rollbacks the corruption must surface as a detected divergence on at
// least one seed. If every seed passes, the oracle is blind.
func TestFaultOracleTeeth(t *testing.T) {
	detected := 0
	for seed := int64(1); seed <= 20 && detected == 0; seed++ {
		prog, err := genFaultProgram(seed, 60)
		if err != nil {
			t.Fatal(err)
		}
		plan := &faults.Plan{Seed: seed, Events: []faults.Event{
			{Kind: faults.MispredictStorm, From: 0, To: 200_000, Arg: 1}, // flip every prediction early on
			{Kind: faults.SkipRestore, From: 0},                          // rollbacks keep speculative regs
		}}
		if _, err := emuCheck(simCase{name: "sst", cell: CoreCell(KindSST, prog), opts: fuzzFaultOpts(), plan: plan}); err != nil {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("skip-restore corruption never detected: the invisibility oracle has no teeth")
	}
	t.Logf("oracle detected skip-restore corruption")
}
