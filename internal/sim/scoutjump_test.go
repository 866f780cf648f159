package sim

import (
	"bytes"
	"context"
	"flag"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/faults"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
	"rocksim/internal/workload"
)

// This file is the scout period jump's differential oracle (see
// internal/core/period.go): a scout run with fast-forward — which jumps
// whole iterations of a repeating scout loop — must match naive stepping
// in every observable. The jump is skipped while a sink is attached, so
// each cell also runs bare: no Collector, only the metrics registry.

var scoutSweep = flag.Bool("scout-sweep", false,
	"run the scout period-jump differential over every workload, secure mode, TAGE and the fault plan")

// bareRun executes cell c on the (possibly well-used) instance in, or on
// a fresh machine when in is nil, with only a metrics registry attached,
// and returns the outcome, the final memory images and the metrics JSON.
func bareRun(t *testing.T, in *Instance, c Cell, plan *faults.Plan, noFF bool, opts Options) (Outcome, []*mem.Sparse, []byte) {
	t.Helper()
	opts.Faults = plan
	opts.NoFastForward = noFF
	opts.Metrics = obs.NewRegistry()
	opts.Sink = nil
	var out Outcome
	var err error
	var mems []*mem.Sparse
	if in == nil && c.Topo == TopoCore {
		out, err = Run(c.Kind, c.Progs[0], opts)
		mems = []*mem.Sparse{out.Mem}
	} else {
		if in == nil {
			if in, err = NewInstance(c.Shape(), opts); err != nil {
				t.Fatal(err)
			}
		}
		out, err = in.Run(context.Background(), c, opts)
		for _, m := range in.machs {
			mems = append(mems, m.Mem)
		}
	}
	if err != nil {
		t.Fatalf("%v noFF=%v: %v", c.Shape(), noFF, err)
	}
	var mbuf bytes.Buffer
	if err := opts.Metrics.WriteJSON(&mbuf); err != nil {
		t.Fatal(err)
	}
	return out, mems, mbuf.Bytes()
}

// checkFFBare is checkFFCellOpts without a sink: the statistics
// snapshot, metrics JSON, registers and memory images must match
// between naive stepping and fast-forward.
func checkFFBare(t *testing.T, name string, c Cell, plan *faults.Plan, opts Options) {
	t.Helper()
	naive, nmem, nm := bareRun(t, nil, c, plan, true, opts)
	fast, fmem, fm := bareRun(t, nil, c, plan, false, opts)
	sameBare(t, name, "naive", "fast-forward", naive, fast, nmem, fmem, nm, fm)
}

// sameBare requires two bare runs of one cell, a and b, to match in
// cycles, retired instructions, registers, statistics snapshot, metrics
// JSON and memory images.
func sameBare(t *testing.T, name, a, b string, ao, bo Outcome, amem, bmem []*mem.Sparse, am, bm []byte) {
	t.Helper()
	if ao.Cycles != bo.Cycles || ao.Retired != bo.Retired {
		t.Errorf("%s: %s %d cycles/%d retired, %s %d cycles/%d retired",
			name, a, ao.Cycles, ao.Retired, b, bo.Cycles, bo.Retired)
	}
	if ao.Regs != bo.Regs {
		t.Errorf("%s: architectural registers diverge between %s and %s", name, a, b)
	}
	if aj, bj := statsJSON(t, ao), statsJSON(t, bo); !bytes.Equal(aj, bj) {
		t.Errorf("%s: statistics snapshot diverges between %s and %s: %s", name, a, b, firstDiff(aj, bj))
	}
	if !bytes.Equal(am, bm) {
		t.Errorf("%s: metrics JSON diverges between %s and %s: %s", name, a, b, firstDiff(am, bm))
	}
	for i := range amem {
		if !amem[i].Equal(bmem[i]) {
			t.Errorf("%s: thread %d memory image diverges between %s and %s", name, i, a, b)
		}
	}
}

// scoutVariants are the option settings the sweep runs: the default,
// each secure-speculation mode, and TAGE, whose history the jump must
// hold stable over all 64 bits.
var scoutVariants = []struct {
	name string
	set  func(*Options)
}{
	{"default", func(*Options) {}},
	{"delay", func(o *Options) { o.SST.SecureDelayOnMiss = true }},
	{"nofwd", func(o *Options) { o.SST.SecureNoNAForward = true }},
	{"ssbflush", func(o *Options) { o.SST.SecureEagerSSBFlush = true }},
	{"tage", func(o *Options) { o.Pred.Kind = bpred.TAGE }},
}

// scoutFaultPlan perturbs every speculation decision point scout meets,
// windows that open and close inside test-scale runs included.
func scoutFaultPlan(t *testing.T) *faults.Plan {
	t.Helper()
	p, err := faults.Parse("seed=3;mem-jitter@20000-40000:8;mispredict@60000-80000:4;rollback@100000;ckpt-deny@120000-130000")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestScoutJumpDifferential: scout with the period jump matches naive
// stepping on the built-in workloads. Tier 1 runs the scout-heavy and
// the commercial workloads bare, under the default options and one
// secure mode; -scout-sweep runs every workload under every variant and
// the fault plan, bare and with a Collector (which turns the jump off,
// so the two runs differ in what they exercise, not in result).
func TestScoutJumpDifferential(t *testing.T) {
	names, modes := []string{"chase", "mcf", "jbb", "oltp"}, scoutVariants[:2]
	plans := []*faults.Plan{nil}
	if *scoutSweep {
		names, modes = workload.Names, scoutVariants
		plans = append(plans, scoutFaultPlan(t))
	}
	for _, name := range names {
		c := CoreCell(KindScout, buildWorkload(t, name))
		for _, m := range modes {
			opts := fuzzFaultOpts()
			m.set(&opts)
			for _, plan := range plans {
				label := name + "/" + m.name
				if plan != nil {
					label += "/faults"
				}
				checkFFBare(t, label, c, plan, opts)
				if *scoutSweep {
					checkFFCellOpts(t, c, plan, opts)
				}
			}
		}
	}
}

// scoutProgram builds a program whose scout episodes run a loop over an
// NA pointer. A pointer-chasing miss opens each of the chases episodes
// (r5 counts them down); setup runs before each episode's loop, and body
// follows the loop's NA load and must end in a branch back to "loop".
// r9 is setup's scratch register for MovImm64.
func scoutProgram(t *testing.T, chases int, setup, body func(b *asm.Builder)) *asm.Program {
	t.Helper()
	const base = 0x400000
	b := asm.NewBuilder(asm.DefaultTextBase)
	b.MovImm64(1, 9, base)
	b.Movi(5, int32(chases))
	b.Label("episode")
	b.Ld(isa.OpLd64, 1, 1, 0) // the miss that opens a scout episode
	setup(b)
	b.Label("loop")
	b.Ld(isa.OpLd64, 4, 1, 8) // NA address while scouting
	body(b)
	b.Opi(isa.OpAddi, 5, 5, -1)
	b.Br(isa.OpBne, 5, isa.RegZero, "episode")
	b.St(isa.OpSt64, 2, isa.RegZero, 64)
	b.Halt()
	img := make([]uint64, 64*8)
	for i := range 64 {
		img[i*8] = uint64(base + ((i*37+11)%64)*4096)
	}
	data := make([]byte, 0, 64*4096)
	for i := range 64 {
		var line [4096]byte
		for j := range 8 {
			line[j] = byte(img[i*8] >> (8 * j))
		}
		data = append(data, line[:]...)
	}
	b.Data(base, data)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// scoutLoop builds a scoutProgram whose loop body moves a counter by
// step and leaves through a branch of kind op once the counter crosses
// limit, so the exit falls at every iteration around a candidate jump's
// end as limit varies.
func scoutLoop(t *testing.T, op isa.Op, start, step, limit int64, chases int) *asm.Program {
	t.Helper()
	return scoutProgram(t, chases, func(b *asm.Builder) {
		b.MovImm64(2, 9, start)
		b.MovImm64(3, 9, limit)
	}, func(b *asm.Builder) {
		b.Opi(isa.OpAddi, 2, 2, int32(step))
		b.Br(op, 2, 3, "loop")
	})
}

// TestScoutJumpLoopExits: hand-built scout loops whose exit branch — a
// bne or blt against a bound the moving counter crosses — falls at each
// iteration around where a jump would end, and a trip count that runs
// out while the core is still scouting. Every one must match naive
// stepping exactly.
func TestScoutJumpLoopExits(t *testing.T) {
	opts := fuzzFaultOpts()
	// The loop runs about 75 iterations per episode before the opening
	// miss returns; trips up to 100 leave it inside, at and past the
	// largest jump's end.
	for _, tc := range []struct {
		op          isa.Op
		start, step int64
		from        int64
	}{
		{isa.OpBne, 0, 1, 1},
		{isa.OpBne, 1000, -1, 50},
		{isa.OpBlt, -40, 3, 50},
		{isa.OpBge, 500, -2, 50},
		{isa.OpBltu, 5, 1, 50},
	} {
		for trip := tc.from; trip <= 100; trip++ {
			p := scoutLoop(t, tc.op, tc.start, tc.step, tc.start+trip*tc.step, 3)
			checkFFBare(t, tc.op.String()+"/trip"+itoa(int(trip)), CoreCell(KindScout, p), nil, opts)
		}
	}
	// The loops jump at all: most of their scout cycles are credited,
	// not stepped.
	cycles, steps, c := driveFF(t, KindScout, scoutLoop(t, isa.OpBne, 0, 1, 100, 3))
	if scout := c.(*core.Core).Stats().ModeCycles[core.CyScout]; 2*(cycles-steps) < scout {
		t.Errorf("scout loop: %d of %d cycles credited, against %d scout cycles; the period jump did not engage",
			cycles-steps, cycles, scout)
	}
}

// TestScoutJumpChip: a CMP-2 scout chip, where a jump lands only where
// both cores can skip and the chip's SkipTo may cut one core's jump
// short of its horizon.
func TestScoutJumpChip(t *testing.T) {
	for trip := int64(60); trip <= 90; trip += 3 {
		progs := []*asm.Program{
			scoutLoop(t, isa.OpBne, 0, 1, trip, 3),
			scoutLoop(t, isa.OpBlt, 0, 2, 2*trip+40, 3),
		}
		checkFFBare(t, "cmp-2 scout/trip"+itoa(int(trip)), Cell{Kind: KindScout, Topo: TopoCMP, Progs: progs}, nil, fuzzFaultOpts())
	}
}

// scoutRefusals are scout loops whose later episodes must not re-arm
// from the period an earlier episode verified (see periodRef in
// internal/core/period.go): each episode sets its loop up from r5, the
// episode counter, so consecutive episodes run the same head with a
// different delta, NA pattern or path. Each leaves once r2 reaches r3 =
// limit.
var scoutRefusals = []struct {
	name        string
	setup, body func(b *asm.Builder)
}{
	// The counter moves by the episode number: every episode's period
	// has its own register delta.
	{"episode-step", func(b *asm.Builder) {
		b.Movi(2, 0)
	}, func(b *asm.Builder) {
		b.Op(isa.OpAdd, 2, 2, 5)
		b.Br(isa.OpBlt, 2, 3, "loop")
	}},
	// r7 moves by r8, the episode's parity: in even episodes the counter
	// moves by 1 per period; in odd ones r7 grows, so the counter's step
	// grows too, while every other delta repeats the even episodes'.
	{"second-order", func(b *asm.Builder) {
		b.Movi(2, 0)
		b.Movi(7, 1)
		b.Opi(isa.OpAndi, 8, 5, 1)
	}, func(b *asm.Builder) {
		b.Op(isa.OpAdd, 7, 7, 8)
		b.Op(isa.OpAdd, 2, 2, 7)
		b.Br(isa.OpBlt, 2, 3, "loop")
	}},
	// r7 is NA (a copy of the missing pointer) in odd episodes and 0 in
	// even ones: the loop's add reads it in a different NA pattern while
	// no register moves differently.
	{"na-pattern", func(b *asm.Builder) {
		b.Movi(2, 0)
		b.Opi(isa.OpAndi, 8, 5, 1)
		b.Movi(7, 0)
		b.Br(isa.OpBeq, 8, isa.RegZero, "loop")
		b.Op(isa.OpAdd, 7, 1, isa.RegZero)
	}, func(b *asm.Builder) {
		b.Op(isa.OpAdd, 6, 6, 7)
		b.Opi(isa.OpAddi, 2, 2, 1)
		b.Br(isa.OpBlt, 2, 3, "loop")
	}},
	// The episode's parity picks an add or a sub path through the body,
	// each seven issues with the loop's NA load and branch, each reached
	// by a taken branch; both rejoin before the one loop branch. Their
	// periods still differ by a cycle, so the signature refuses the
	// other path's cached period before the records do.
	{"op-path", func(b *asm.Builder) {
		b.Movi(2, 0)
		b.Movi(10, 0)
		b.Opi(isa.OpAndi, 8, 5, 1)
	}, func(b *asm.Builder) {
		b.Br(isa.OpBeq, 8, isa.RegZero, "sub")
		b.Br(isa.OpBne, 8, isa.RegZero, "add")
		b.Label("add")
		b.Op(isa.OpAdd, 6, 6, 10)
		b.Jmp("join")
		b.Label("sub")
		b.Nop()
		b.Op(isa.OpSub, 6, 6, 10)
		b.Jmp("join")
		b.Label("join")
		b.Opi(isa.OpAddi, 2, 2, 1)
		b.Br(isa.OpBlt, 2, 3, "loop")
	}},
}

// refusalProgram is scoutRefusals[i] over chases episodes, leaving its
// loop once the counter reaches limit. Each episode first shifts 16
// taken branches into the history register, covering the bits the
// predictor reads, so the previous loop's exit is forgotten and the
// history alone does not refuse a re-arm at the episode's second loop
// head.
func refusalProgram(t *testing.T, i int, limit int64, chases int) *asm.Program {
	t.Helper()
	r := scoutRefusals[i]
	return scoutProgram(t, chases, func(b *asm.Builder) {
		for j := range 16 {
			b.Br(isa.OpBeq, isa.RegZero, isa.RegZero, "flush"+itoa(j))
			b.Label("flush" + itoa(j))
		}
		b.MovImm64(3, 9, limit)
		r.setup(b)
	}, r.body)
}

// TestScoutJumpRefusesOtherEpisodes: loops whose episodes differ in a
// register delta, an NA pattern or the path behind one loop head must
// fall back to stepping (or to a chain of their own) where a cached
// period does not fit, and match naive stepping exactly, on one core
// and on a CMP-2 chip whose cores run different variants.
func TestScoutJumpRefusesOtherEpisodes(t *testing.T) {
	opts := fuzzFaultOpts()
	for i, r := range scoutRefusals {
		for _, limit := range []int64{12, 16, 20, 24, 30, 40} {
			label := r.name + "/limit" + itoa(int(limit))
			checkFFBare(t, label, CoreCell(KindScout, refusalProgram(t, i, limit, 7)), nil, opts)
			progs := []*asm.Program{
				refusalProgram(t, i, limit, 7),
				refusalProgram(t, (i+1)%len(scoutRefusals), limit+13, 6),
			}
			checkFFBare(t, "cmp-2 "+label, Cell{Kind: KindScout, Topo: TopoCMP, Progs: progs}, nil, opts)
		}
	}
}

// TestPooledScoutForgetsCachedPeriod: one scout instance runs mcf, whose
// episodes leave a verified period cached, then chase, then mcf again,
// bare so the period jump and its cache are live. Each run must match a
// fresh construction: Reset forgets the cached period, so no run
// re-arms from a loop of the run before it.
func TestPooledScoutForgetsCachedPeriod(t *testing.T) {
	opts := fuzzFaultOpts()
	in, err := NewInstance(Shape{Kind: KindScout}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"mcf", "chase", "mcf"} {
		c := CoreCell(KindScout, buildWorkload(t, name))
		fresh, fmem, fm := bareRun(t, nil, c, nil, false, opts)
		pooled, pmem, pm := bareRun(t, in, c, nil, false, opts)
		sameBare(t, "run "+itoa(i+1)+" ("+name+")", "fresh", "pooled", fresh, pooled, fmem, pmem, fm, pm)
	}
}
