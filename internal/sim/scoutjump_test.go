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

// bareRun executes cell c with only a metrics registry attached and
// returns the outcome, the final memory images and the metrics JSON.
func bareRun(t *testing.T, c Cell, plan *faults.Plan, noFF bool, opts Options) (Outcome, []*mem.Sparse, []byte) {
	t.Helper()
	opts.Faults = plan
	opts.NoFastForward = noFF
	opts.Metrics = obs.NewRegistry()
	opts.Sink = nil
	var out Outcome
	var err error
	var mems []*mem.Sparse
	if c.Topo == TopoCore {
		out, err = Run(c.Kind, c.Progs[0], opts)
		mems = []*mem.Sparse{out.Mem}
	} else {
		in, nerr := NewInstance(c.Shape(), opts)
		if nerr != nil {
			t.Fatal(nerr)
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
	naive, nmem, nm := bareRun(t, c, plan, true, opts)
	fast, fmem, fm := bareRun(t, c, plan, false, opts)
	if naive.Cycles != fast.Cycles || naive.Retired != fast.Retired {
		t.Errorf("%s: naive %d cycles/%d retired, fast-forward %d cycles/%d retired",
			name, naive.Cycles, naive.Retired, fast.Cycles, fast.Retired)
	}
	if naive.Regs != fast.Regs {
		t.Errorf("%s: architectural registers diverge under fast-forward", name)
	}
	if nj, fj := statsJSON(t, naive), statsJSON(t, fast); !bytes.Equal(nj, fj) {
		t.Errorf("%s: statistics snapshot diverges under fast-forward: %s", name, firstDiff(nj, fj))
	}
	if !bytes.Equal(nm, fm) {
		t.Errorf("%s: metrics JSON diverges under fast-forward: %s", name, firstDiff(nm, fm))
	}
	for i := range nmem {
		if !nmem[i].Equal(fmem[i]) {
			t.Errorf("%s: thread %d memory image diverges under fast-forward", name, i)
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

// scoutLoop builds a program whose scout episodes run a counted loop
// over an NA pointer. A pointer-chasing miss opens each episode; the
// loop body moves a counter by step and leaves through a branch of
// kind op once the counter crosses limit, so the exit falls at every
// iteration around a candidate jump's end as limit varies.
func scoutLoop(t *testing.T, op isa.Op, start, step, limit int64, chases int) *asm.Program {
	t.Helper()
	const base = 0x400000
	b := asm.NewBuilder(asm.DefaultTextBase)
	b.MovImm64(1, 9, base)
	b.Movi(5, int32(chases))
	b.Label("episode")
	b.Ld(isa.OpLd64, 1, 1, 0) // the miss that opens a scout episode
	b.MovImm64(2, 9, start)
	b.MovImm64(3, 9, limit)
	b.Label("loop")
	b.Ld(isa.OpLd64, 4, 1, 8) // NA address while scouting
	b.Opi(isa.OpAddi, 2, 2, int32(step))
	b.Br(op, 2, 3, "loop")
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
