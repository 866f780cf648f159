package core

import (
	"math/rand"
	"reflect"
	"testing"

	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/resetcheck"
	"rocksim/internal/workload"
)

// newScout builds a scout core over a fresh default machine running the
// built-in workload name at test scale.
func newScout(t *testing.T, name string) *Core {
	t.Helper()
	w, err := workload.Build(name, workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewSparse()
	w.Program.Load(m)
	mach, err := cpu.NewMachine(m, mem.DefaultHierConfig(), bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(mach, ScoutConfig(), w.Program.Entry)
}

// simState is everything a run leaves behind except the jump's own
// detection state and the per-step scratch of either skip: the core, and
// through its pointers the machine — memory, hierarchy, predictor.
func simState(c *Core) Core {
	s := *c
	s.pj = periodJump{}
	s.snapBuf = stepSnap{}
	s.ffNext, s.ff = 0, credit{}
	return s
}

// TestPeriodJumpLandsOnNaiveState: a scout run that jumps lands, at
// cycles chosen to cut jumps short as RunCtx's watchdog boundaries do,
// on exactly the state naive stepping reaches — every core field and,
// through the machine, every cache line's LRU stamp, predictor entry and
// memory byte. It also checks that the runs did jump, and that stops cut
// jumps re-armed from a cached period (armed at a chain's second
// snapshot, as almost every jump of these runs is).
func TestPeriodJumpLandsOnNaiveState(t *testing.T) {
	for _, name := range []string{"chase", "mcf"} {
		naive, fast := newScout(t, name), newScout(t, name)
		jumped := uint64(0)
		rearmedCuts := 0
		// The first 1.2 M cycles (about 40% of each run) hold thousands
		// of scout episodes. Each stride stops twice, 311 cycles apart,
		// to cut more jumps.
		for base := uint64(50_000); !fast.Done() && base < 1_200_000; base += 97_331 {
			for _, stop := range []uint64{base, base + 311} {
				for !naive.Done() && naive.Cycle() < stop {
					naive.Step()
				}
				for !fast.Done() && fast.Cycle() < stop {
					if tgt := fast.NextEvent(); tgt > fast.Cycle() {
						if fast.pj.end != 0 {
							jumped += min(tgt, stop) - fast.Cycle()
							if tgt > stop && fast.pj.n == 2 {
								rearmedCuts++
							}
						}
						fast.SkipTo(min(tgt, stop))
						continue
					}
					fast.Step()
				}
				if naive.Cycle() != fast.Cycle() || !reflect.DeepEqual(simState(naive), simState(fast)) {
					t.Fatalf("%s: state diverges at cycle %d (naive at %d)", name, fast.Cycle(), naive.Cycle())
				}
			}
		}
		if rearmedCuts == 0 {
			t.Errorf("%s: no stop fell inside a re-armed jump", name)
		}
		if naive.Done() != fast.Done() {
			t.Fatalf("%s: one run halted and the other did not", name)
		}
		if 2*jumped < naive.Cycle() {
			t.Errorf("%s: period jumps covered %d of %d cycles", name, jumped, naive.Cycle())
		}
	}
}

// TestBranchHolds: branchHolds is a sound bound. For every branch kind,
// over random operands and deltas, the outcome holds for every period up
// to the bound it returns. It may stop early (an equality passing over
// zero, an operand pair starting equal) but not late; the cases below
// pin the answers the loop exits rely on.
func TestBranchHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	val := func(n int64) int64 { return rng.Int63n(2*n+1) - n }
	for _, op := range []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu} {
		for range 5_000 {
			a, b, da, db := val(2000), val(2000), val(40), val(40)
			k := branchHolds(op, a, b, da, db)
			taken := isa.BranchTaken(op, a, b)
			for n := int64(1); n <= int64(min(k, 5000)); n++ {
				if isa.BranchTaken(op, a+n*da, b+n*db) != taken {
					t.Fatalf("%v a=%d b=%d da=%d db=%d: bound %d, but the outcome changes at period %d", op, a, b, da, db, k, n)
				}
			}
		}
	}
	for _, tc := range []struct {
		op           isa.Op
		a, b, da, db int64
		want         uint64
	}{
		{isa.OpBne, 100, 0, -1, 0, 99},          // chase: the counter reaches zero at period 100
		{isa.OpBne, 0, 100, 1, 0, 99},           // counting up to a bound
		{isa.OpBne, 0, 101, 2, 0, 50},           // passes the bound without meeting it: stop anyway
		{isa.OpBlt, 0, 30, 3, 0, 9},             // 27 < 30 still holds at period 9
		{isa.OpBge, 500, 300, -2, 0, 99},        // meets the bound at period 100: stop before it
		{isa.OpBltu, 5, 0, -1, 0, 4},            // unsigned: stops before the operands meet or go negative
		{isa.OpBne, 0, 10, 1, 1, periodMaxJump}, // both move together: never changes
		{isa.OpBne, 1 << 40, 0, -1, 0, 0},       // beyond 2^31: stepped
	} {
		if got := branchHolds(tc.op, tc.a, tc.b, tc.da, tc.db); got != tc.want {
			t.Errorf("%v a=%d b=%d da=%d db=%d: bound %d, want %d", tc.op, tc.a, tc.b, tc.da, tc.db, got, tc.want)
		}
	}
}

// TestResetForgetsCachedPeriod: a scout core that has cached a verified
// period and is then reset onto another program holds exactly a fresh
// core's state — the period jump's cache included — and runs like one.
func TestResetForgetsCachedPeriod(t *testing.T) {
	used := newScout(t, "mcf")
	for !used.Done() && used.pj.ref.sig.pc == 0 {
		used.Step()
	}
	if used.pj.ref.sig.pc == 0 {
		t.Fatal("mcf never cached a verified scout period")
	}
	w, err := workload.Build("chase", workload.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	used.m.Reset()
	w.Program.Load(used.m.Mem)
	used.Reset(w.Program.Entry)
	fresh := newScout(t, "chase")
	// As in TestResetMidEpochMatchesFresh: the deferred queue's slots and
	// links may keep stale entries, and the frontend has its own test.
	strip := func(c *Core) Core {
		s := *c
		s.m, s.fe, s.dqSlots, s.waitNext = nil, nil, nil, nil
		return s
	}
	if d := resetcheck.Diff(strip(fresh), strip(used)); d != "" {
		t.Fatalf("reset core differs from fresh at %s", d)
	}
	for _, c := range []*Core{used, fresh} {
		for !c.Done() && c.Err() == nil {
			if tgt := c.NextEvent(); tgt > c.Cycle() {
				c.SkipTo(tgt)
				continue
			}
			c.Step()
		}
	}
	if used.Cycle() != fresh.Cycle() || !reflect.DeepEqual(used.Stats(), fresh.Stats()) || used.Regs() != fresh.Regs() {
		t.Errorf("reset run differs from fresh: %d vs %d cycles", used.Cycle(), fresh.Cycle())
	}
}
