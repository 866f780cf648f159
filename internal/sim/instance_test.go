package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
)

// This file is the pooling differential oracle, the Reset-contract
// counterpart of ffwd_test.go: every observable a run produces — cycle
// and retire counts, architectural registers, the CPI stack, the
// exported metrics JSON (counters, histograms, occupancy timelines,
// injector counts), the Chrome trace bytes and the final memory image —
// must be byte-identical between a freshly constructed simulator and a
// pooled Instance that has already executed arbitrary other runs. Any
// state a model forgets to clear in Reset — a stale NA bit, a warm
// cache line, a trained predictor entry, a leftover deferred-queue
// entry — shows up here as a divergence.

// TestPooledDifferentialFuzz: one Instance per machine shape, reused
// back to back across random programs (including transactions) — every
// run on the used instance must match a fresh construction. Seed 1 runs
// twice in a row first, so same-program-same-instance reuse (the
// service cache-miss storm shape) is covered, not just varied programs.
func TestPooledDifferentialFuzz(t *testing.T) {
	n := int64(8)
	if testing.Short() {
		n = 3
	}
	eachShape(t, func(t *testing.T, s Shape) {
		in := newInstance(t, s, fuzzFaultOpts())
		for seed := int64(1); seed <= n; seed++ {
			c := genCase(t, s, seed, genProgram, 80, nil)
			checkPooled(t, in, c, false)
			if seed == 1 {
				checkPooled(t, in, c, false)
			}
		}
	})
}

// TestPooledFaultDifferential: pooled reuse under random fault plans.
// The injectors are rebuilt per run, so a plan's one-shot events must
// re-fire identically on a reused machine; leftover injector state or a
// surviving denied-checkpoint clamp would diverge the trace bytes.
// This also extends the CPI sum==cycles invariant (same calls
// checkCPISum) to pooled, reused single cores under faults.
func TestPooledFaultDifferential(t *testing.T) {
	n := int64(6)
	if testing.Short() {
		n = 2
	}
	eachShape(t, func(t *testing.T, s Shape) {
		in := newInstance(t, s, fuzzFaultOpts())
		for seed := int64(1); seed <= n; seed++ {
			c := genCase(t, s, seed, genFaultProgram, 70, faults.Random(seed, faultHorizon))
			checkPooled(t, in, c, false)
			// Alternate faulted and clean runs on the same instance:
			// a clean run right after a faulted one catches injector
			// state outliving its plan.
			c.plan = nil
			checkPooled(t, in, c, false)
		}
	})
}

// TestPooledAfterError: a run that trips a watchdog (cycle limit) must
// leave the instance fully reusable — the next Reset clears everything,
// and the following run matches a fresh machine exactly.
func TestPooledAfterError(t *testing.T) {
	eachShape(t, func(t *testing.T, s Shape) {
		in := newInstance(t, s, fuzzFaultOpts())
		c := genCase(t, s, 2, genProgram, 80, nil)
		opts := fuzzFaultOpts()
		opts.MaxCycles = 50 // guaranteed to trip
		if _, err := in.Run(context.Background(), c.cell, opts); !errors.Is(err, cpu.ErrCycleLimit) {
			t.Fatalf("want a cycle-limit error, got %v", err)
		}
		checkPooled(t, in, c, false)
	})
}

// TestPooledSecretDifferential: secret-tainted runs pool safely. The
// leakage oracle runs its differential pair through the same pooled
// instance everything else uses, so (a) a pooled oracle must reach the
// same verdict as a fresh one — leak and clean alike — and (b) an
// instance that just executed leaking, secret-salted programs must
// still match a fresh machine byte-for-byte on the next ordinary run.
// Residue from SetSecret (a surviving secret range or digest salt)
// would diverge either the verdict or the differential.
func TestPooledSecretDifferential(t *testing.T) {
	// The secure modes are construction-affecting (they live in the SST
	// core config, covered by Options.ShapeFingerprint), so each mode
	// needs a shape-matched instance — exactly what a PoolKey-keyed pool
	// provides.
	for _, k := range []Kind{KindSST, KindScout, KindInOrder} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for _, mode := range []string{"none", "all"} {
				in, err := NewInstance(Shape{Kind: k}, leakOpts(mode))
				if err != nil {
					t.Fatal(err)
				}
				for _, g := range gadgetFiles {
					prog := loadGadget(t, g)
					fresh := leakVerdict(k, prog, leakOpts(mode))
					pooled := in.CheckTransientLeakage(context.Background(), prog, leakOpts(mode))
					if (fresh == nil) != (pooled == nil) ||
						(fresh != nil && pooled != nil && fresh.Error() != pooled.Error()) {
						t.Errorf("%s mode=%s: fresh oracle says %v, pooled says %v", g, mode, fresh, pooled)
					}
				}
				if mode != "none" {
					continue
				}
				// The default-shape instance has now run leaking,
				// secret-tainted programs; an ordinary run on it must
				// still match a fresh machine byte-for-byte.
				prog, err := genProgram(3, 80)
				if err != nil {
					t.Fatal(err)
				}
				checkPooled(t, in, simCase{name: k.String() + " after the gadgets", cell: CoreCell(k, prog), opts: fuzzFaultOpts()}, false)
			}
		})
	}
}

// TestPooledDetachedOutcomeIsFrozen: the outcome a pooled run
// returns must keep its figures forever, even after the instance runs
// something else — the run cache and the service layer hold these
// outcomes indefinitely.
func TestPooledDetachedOutcomeIsFrozen(t *testing.T) {
	in, err := NewInstance(Shape{Kind: KindSST}, fuzzFaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	progA, err := genProgram(1, 80)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := genProgram(5, 80)
	if err != nil {
		t.Fatal(err)
	}
	run := func(prog *asm.Program) result {
		r := runCase(simCase{name: prog.Desc(), cell: CoreCell(KindSST, prog), opts: fuzzFaultOpts()}, how{in: in})
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	}
	a := run(progA)
	outA, ma := a.out, a.metrics
	cyclesA, baseA := outA.Cycles, outA.Base

	// Overwrite the live machine with a different program.
	if bytes.Equal(ma, run(progB).metrics) {
		t.Fatal("test needs two programs with different metrics")
	}

	if outA.Cycles != cyclesA || outA.Base != baseA {
		t.Error("detached outcome mutated by a later run on the same instance")
	}
	// Run A's registry — the one the service layer snapshots on a cache
	// hit — must still serialize to exactly run A's bytes: it holds
	// cloned histograms and value counters, nothing aliased to the live
	// (since reused) machine.
	var again bytes.Buffer
	if err := outA.Obs.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), ma) {
		t.Errorf("detached registry mutated by a later run on the same instance: %s",
			firstDiff("run A", ma, "its registry now", again.Bytes()))
	}
}

// TestPooledKindSwitchDifferential: a single-core instance serves every
// kind, so the run before any run may have been another kind's on the
// same machine. For every ordered pair (A, B) of kinds, B run right
// after A on one instance must match a fresh B run byte for byte —
// snapshot, metrics JSON and Chrome trace — clean and under a fault
// plan.
func TestPooledKindSwitchDifferential(t *testing.T) {
	for _, a := range Kinds {
		t.Run(a.String(), func(t *testing.T) {
			t.Parallel()
			in := newInstance(t, Shape{Kind: a}, fuzzFaultOpts())
			for i, b := range Kinds {
				seed := int64(10 + i)
				for _, plan := range []*faults.Plan{nil, faults.Random(seed, faultHorizon)} {
					prev := genCase(t, Shape{Kind: a}, seed+100, genFaultProgram, 70, plan)
					if r := runCase(prev, how{in: in}); r.err != nil {
						t.Fatal(r.err)
					}
					if in.Kind() != a {
						t.Fatalf("instance reports kind %v after a %v run", in.Kind(), a)
					}
					checkPooled(t, in, genCase(t, Shape{Kind: b}, seed, genFaultProgram, 70, plan), false)
				}
			}
		})
	}
}

// TestPooledLeakCheckAfterOtherKind: a leak-check cell on a single-core
// instance whose previous run was a plain run of another kind reaches
// the fresh oracle's verdict, and its outcome names the cell's kind.
func TestPooledLeakCheckAfterOtherKind(t *testing.T) {
	opts := leakOpts("none")
	in, err := NewInstance(Shape{Kind: KindInOrder}, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := genProgram(4, 80)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gadgetFiles {
		prog := loadGadget(t, g)
		for _, k := range []Kind{KindSST, KindScout, KindOOOLarge} {
			if _, err := in.Run(context.Background(), CoreCell(KindInOrder, plain), opts); err != nil {
				t.Fatal(err)
			}
			fresh := leakVerdict(k, prog, opts)
			out, pooled := in.Run(context.Background(), Cell{Kind: k, Progs: []*asm.Program{prog}, LeakCheck: true}, opts)
			if (fresh == nil) != (pooled == nil) || fresh != nil && fresh.Error() != pooled.Error() {
				t.Errorf("%s on %v after an in-order run: fresh oracle says %v, pooled says %v", g, k, fresh, pooled)
			}
			if out.Kind != k {
				t.Errorf("%s on %v: leak-check outcome names kind %v", g, k, out.Kind)
			}
		}
	}
}
