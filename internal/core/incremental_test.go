package core

import (
	"fmt"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/faults"
	"rocksim/internal/mem"
	"rocksim/internal/progen"
)

// The core keeps two structures incrementally that it once recomputed
// by scanning: the oldest-unresolved watermark (oldestUnresolvedSeq)
// and the DQ wakeup (forward, through per-producer waiter chains). The
// scans they replaced live on here, and only here, as oracles, next to
// the scan that re-derives the pending list's counters.

// checkPendCounters re-derives the counters kept beside the pending
// list (pendMin, pendSeqMin, secPending) by scanning it. pendMin ranges
// over the entries deliver can deliver (neither blocked nor
// quarantined), secureHold when there are none.
func checkPendCounters(c *Core) error {
	var minSeq uint64
	minReady := uint64(secureHold)
	held := 0
	for i, p := range c.pend {
		if i == 0 || p.seq < minSeq {
			minSeq = p.seq
		}
		if p.blocked || p.quarantined {
			held++
		} else if p.ready < minReady {
			minReady = p.ready
		}
	}
	if held != c.secPending {
		return fmt.Errorf("secPending %d, the scan counts %d held entries", c.secPending, held)
	}
	if len(c.pend) > 0 && (c.pendMin != minReady || c.pendSeqMin != minSeq) {
		return fmt.Errorf("pendMin %d pendSeqMin %d, the scan gives %d and %d", c.pendMin, c.pendSeqMin, minReady, minSeq)
	}
	return nil
}

// scanOldestUnresolved is the scan oldestUnresolvedSeq replaced: the
// smallest seq among DQ entries and pending results, else c.seq.
func scanOldestUnresolved(c *Core) uint64 {
	oldest := c.seq
	for _, k := range c.dq {
		if s := c.dqSlots[k].seq; s < oldest {
			oldest = s
		}
	}
	for i := range c.pend {
		if c.pend[i].seq < oldest {
			oldest = c.pend[i].seq
		}
	}
	return oldest
}

// scanForward is the broadcast forward replaced: every entry's every
// operand waiting on seq takes v.
func scanForward(dq []dqEntry, seq uint64, v int64) {
	for i := range dq {
		e := &dq[i]
		for s := 0; s < e.nsrc; s++ {
			if e.isNA[s] && e.dep[s] == seq {
				e.vals[s] = v
				e.isNA[s] = false
			}
		}
	}
}

// dqOracle shadows the DQ between Steps. Each Step's forwards are read
// off the entries that survived it (an operand that turned available
// reveals its producer and value), replayed through scanForward on the
// shadow copies, and the shadow must then equal the real queue.
type dqOracle struct {
	shadow []dqEntry
}

func (o *dqOracle) check(c *Core) error {
	live := make(map[uint64]*dqEntry, len(c.dq))
	for _, k := range c.dq {
		live[c.dqSlots[k].seq] = &c.dqSlots[k]
	}
	// The forwards this Step performed, by producer.
	fwd := map[uint64]int64{}
	var order []uint64
	for i := range o.shadow {
		was := &o.shadow[i]
		e := live[was.seq]
		if e == nil {
			continue // replayed or squashed
		}
		for s := 0; s < was.nsrc; s++ {
			if !was.isNA[s] || e.isNA[s] {
				continue
			}
			if v, ok := fwd[was.dep[s]]; ok && v != e.vals[s] {
				return fmt.Errorf("producer seq %d forwarded both %d and %d", was.dep[s], v, e.vals[s])
			}
			if _, ok := fwd[was.dep[s]]; !ok {
				order = append(order, was.dep[s])
			}
			fwd[was.dep[s]] = e.vals[s]
		}
	}
	for _, seq := range order {
		scanForward(o.shadow, seq, fwd[seq])
	}
	for i := range o.shadow {
		was := &o.shadow[i]
		if e := live[was.seq]; e != nil && (e.isNA != was.isNA || e.vals != was.vals || e.dep != was.dep) {
			return fmt.Errorf("DQ entry seq %d: NA %v vals %v, the broadcast gives NA %v vals %v",
				was.seq, e.isNA, e.vals, was.isNA, was.vals)
		}
	}
	// A producer that resolved without any survivor revealing it: the
	// broadcast would have cleared every operand still waiting on it, so
	// each NA operand's producer must still be unresolved.
	unresolved := map[uint64]bool{}
	for i := range c.pend {
		unresolved[c.pend[i].seq] = true
	}
	for seq := range live {
		unresolved[seq] = true
	}
	ready, stores := 0, 0
	for _, k := range c.dq {
		e := &c.dqSlots[k]
		anyNA := false
		for s := 0; s < e.nsrc; s++ {
			if e.isNA[s] {
				anyNA = true
				if !unresolved[e.dep[s]] {
					return fmt.Errorf("DQ entry seq %d operand %d still waits on resolved seq %d", e.seq, s, e.dep[s])
				}
			}
		}
		if !anyNA {
			ready++
		}
		if e.in.Op.IsStore() {
			stores++
		}
	}
	if ready != c.dqReady || stores != c.dqStores {
		return fmt.Errorf("dqReady %d dqStores %d, the scan counts %d and %d", c.dqReady, c.dqStores, ready, stores)
	}
	o.shadow = o.shadow[:0]
	for _, k := range c.dq {
		o.shadow = append(o.shadow, c.dqSlots[k])
	}
	return nil
}

// incrementalKinds are the simulator's SST-family configurations
// (scout has no DQ but keeps the watermark).
func incrementalKinds() []struct {
	name string
	cfg  Config
} {
	big := DefaultConfig()
	big.DQSize *= 2
	big.Checkpoints *= 2
	big.SSBSize *= 2
	return []struct {
		name string
		cfg  Config
	}{
		{"scout", ScoutConfig()},
		{"sst-ea", executeAheadConfig()},
		{"sst", DefaultConfig()},
		{"sst-big", big},
	}
}

// secureModes are the secure-speculation configurations of the
// security grid.
var secureModes = []struct {
	name                 string
	delay, nofwd, ssbFlu bool
}{
	{"none", false, false, false},
	{"delay", true, false, false},
	{"nofwd", false, true, false},
	{"ssb", false, false, true},
	{"all", true, true, true},
}

// runIncremental steps prog on a cfg core, fast-forwarding as
// cpu.RunCtx does, and checks the oracles after every Step (rollbacks
// included: they happen inside Step).
func runIncremental(t *testing.T, name string, cfg Config, prog *asm.Program, plan *faults.Plan) {
	t.Helper()
	m := mem.NewSparse()
	prog.Load(m)
	mach, err := cpu.NewMachine(m, mem.DefaultHierConfig(), bpred.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := New(mach, cfg, prog.Entry)
	if plan != nil {
		inj := plan.New(nil)
		c.SetFaults(inj)
		mach.Hier.SetFaults(inj)
	}
	var o dqOracle
	for steps := 0; !c.Done(); steps++ {
		if steps > 5_000_000 {
			t.Fatalf("%s: did not finish", name)
		}
		if tgt := c.NextEvent(); tgt > c.Cycle() {
			c.SkipTo(tgt)
			continue
		}
		c.Step()
		if err := c.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := c.oldestUnresolvedSeq(), scanOldestUnresolved(c); got != want {
			t.Fatalf("%s cycle %d: watermark %d, the scan gives %d", name, c.cycle, got, want)
		}
		if err := o.check(c); err != nil {
			t.Fatalf("%s cycle %d: %v", name, c.cycle, err)
		}
		if err := checkPendCounters(c); err != nil {
			t.Fatalf("%s cycle %d: %v", name, c.cycle, err)
		}
	}
}

// TestIncrementalStructuresMatchScans runs the differential suites'
// generated programs on every DQ-bearing kind under every secure mode,
// plain and under a fault plan, and requires the maintained watermark,
// the waiter-chain wakeup and the pending list's counters to agree with
// scans after every Step.
func TestIncrementalStructuresMatchScans(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	for _, kind := range incrementalKinds() {
		for _, mode := range secureModes {
			cfg := kind.cfg
			cfg.SecureDelayOnMiss, cfg.SecureNoNAForward, cfg.SecureEagerSSBFlush = mode.delay, mode.nofwd, mode.ssbFlu
			for seed := int64(1); seed <= seeds; seed++ {
				prog, err := progen.Program(seed, 80)
				if err != nil {
					t.Fatal(err)
				}
				runIncremental(t, fmt.Sprintf("%s/%s/seed %d", kind.name, mode.name, seed), cfg, prog, nil)
				prog, err = progen.ProgramNoTx(seed, 70)
				if err != nil {
					t.Fatal(err)
				}
				runIncremental(t, fmt.Sprintf("%s/%s/seed %d/faults", kind.name, mode.name, seed), cfg, prog, faults.Random(seed, 20_000))
			}
		}
	}
}
