package core

import (
	"math"
	"unsafe"

	"rocksim/internal/bpred"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
)

// This file implements the scout period jump: a hardware-scout loop
// that repeats itself exactly is credited k whole iterations in closed
// form instead of being stepped, through the same cpu.FastForwarder seam
// as the pure-stall skip (NextEvent reports the horizon, SkipTo credits).
//
// Scout runs ahead only to prefetch; a scout loop over not-available
// (NA) addresses prefetches nothing, so until the triggering miss
// returns each iteration only advances counters, the clock, seq and the
// registers a loop counter moves. Detection runs at every scout loop
// head, the end of a Step whose ahead strand took a backward branch:
//
//   - the period must have made no known-address load, store or
//     prefetch, no transaction op and at most periodMaxInsts issues. A
//     period that passes extends a chain of loop-head snapshots
//     (periodSnap). A chain's first period extends it unconditionally;
//     a later one must match a cheap signature (branch PC, cycles and
//     instructions since the previous head, the scout episode) of the
//     period before it, or it starts a new chain. The full compare runs
//     on a chain of three.
//   - Three consecutive snapshots must show two periods with equal
//     deltas: every counter (the statistics, the predictor's lookup
//     counters, L1I hits and the LRU clock), seq, every register value;
//     lastWriter moving by the seq delta or not at all; every cycle-
//     valued field (readyAt, sbHorizon, the frontend's bubble end and
//     line-ready cycle) moving by the period or lying in the past (see
//     periodClock.affine); and everything else — mode, list lengths, NA
//     bits, the fetch point, the fault injector's and the predictor
//     tables' mutation counts — holding still. The history register
//     must shift in the same outcome bits every period, with the bits
//     the predictor reads already stable, so every period indexes the
//     same table entries.
//   - The two periods' instruction records must match issue for issue,
//     and an available operand that differs between them may feed only
//     add, sub or addi (keeping every register affine in the iteration
//     count) or a branch, which bounds the jump to the periods in which
//     its outcome cannot change.
//
// Two equal deltas of an affine map fix it: the period's effect is
// x -> x + Bx + c over the moving registers, and B·d = 0 once two
// periods moved by the same d, so every later period moves by d too.
//
// The last period a chain of three verified is kept (periodRef), so a
// later scout episode running the same loop need not verify it again.
// An episode's first loop head usually ends an unjumpable period; at
// the cached period's head PC it still takes a snapshot, and the next
// head compares the one period between them against the cached one:
// the same signature (the episode aside), the same issue records (pc,
// op, NA mask), equal deltas in every counter, register, lastWriter and
// seq-valued field, and every cycle-valued field moving with the clock
// where the cached period's did (a first head may hold a value further
// in the past: periodClock.affine) — every check of the chain of three,
// run on the cached period in place of the chain's first. That is
// enough. The records fix the same affine map (the same instructions on
// the same path, NA in the same places); the earlier episode's two
// equal deltas d fix B·d = 0 for it; and the new period moved by d from
// y, so By + c = d and every later period moves by d again. An
// operand's move per period is the cached one, and the branches reading
// moving operands are bounded from their current values. The jump then
// arms at the episode's second loop head instead of its fourth. Any
// mismatch leaves the chain to arm on its own.
//
// Every jump is thus armed from the cached period, with its counter
// deltas: keepPeriod records the words that period moved, once, and a
// jump of k periods credits them by the core's one credit rule
// (Core.credit in skip.go), which the pure-stall skip shares.
//
// The jump ends before anything that could break the repetition: the
// scout trigger's arrival, any other pending result's delivery, the
// next data fill (it changes the outstanding-miss count) and the fault
// plan's next regime change; none starts inside a memory-jitter window,
// whose delays hash the cycle. TAGE's useful-bit decay tick is stepped,
// not credited: a jump never carries the update count across a decay.
// Jumps are skipped while a sink is attached, since a stepped scout
// cycle reports its executed instructions and a credited run cannot.

// periodMaxInsts bounds the issues recorded per period; a longer loop
// body is stepped.
const periodMaxInsts = 64

// periodMaxJump bounds one jump when nothing else does.
const periodMaxJump = 1 << 20

// periodRec is one issue recorded in scout mode: the instruction and
// its gathered operands (zero where NA).
type periodRec struct {
	pc   uint64
	vals [3]int64
	op   isa.Op
	na   uint8 // bit i: source i was NA
}

// periodSig is the cheap per-period signature gating the full compare.
type periodSig struct {
	pc, cycles, insts, episode uint64
}

// loop is the signature without the episode: what a later episode's
// period must repeat to be compared against the cached one.
func (s periodSig) loop() periodSig {
	s.episode = 0
	return s
}

// periodFixed is the state a repeating period must leave unchanged.
type periodFixed struct {
	mode                               Mode
	lens                               [6]int
	pendMin, pendSeqMin                uint64
	dqStores, dqReady, secPending      int
	scoutTriggerSeq, scoutTriggerReady uint64
	forceProgressPC, cohSeq            uint64
	scoutArmed, forceProgress          bool
	resolveDirty, done, txActive       bool
	quiet                              uint8
	tblWrites, fltMut                  uint64
	pc, lineAddr, pageNum              uint64
	haveLine                           bool
}

// periodSnap is the state at one scout loop head.
type periodSnap struct {
	cycle, seq, processed, sbHorizon uint64
	regState
	stallUntil, lineReady uint64
	ghr                   uint64
	l1iStamp              uint64
	l1i                   mem.CacheStats
	pred                  bpred.Stats
	fixed                 periodFixed
	stats                 Stats
}

// periodRef is the last verified period: the loop-head snapshots at
// its two ends, the issue records of it and of the period before (their
// difference is each operand's move per period), the counter words it
// moved and its signature with the episode left zero. A zero pc means
// none.
type periodRef struct {
	sig    periodSig
	s0, s1 periodSnap
	recs   [2][]periodRec
	moved  credit
}

// periodJump is the detection and jump state.
type periodJump struct {
	head   bool   // this Step took a backward branch in scout mode
	headPC uint64 // that branch
	bad    bool   // the period being recorded cannot be jumped

	recs [2][]periodRec // the previous and the current period's issues
	cur  int            // index of the current period's records

	sig                 periodSig
	lastCycle, lastSeq  uint64
	n                   int // consecutive snapshots in snaps
	snaps               [3]periodSnap
	ref                 periodRef
	period, end         uint64   // an armed jump: period length and horizon
	branches            int      // history shifts per period
	pattern             uint64   // the outcome bits they shift in
	l1iSince, l1iPerRun uint64   // L1I stamp at the period's start, hits per period
	fetch               []uint64 // the credited period's fetch addresses (scratch)
}

// recordScout records one scout-mode issue that passed the scoreboard,
// while the period is still jumpable (the caller checks pj.bad). A
// known-address memory access or a transaction op makes the period
// unjumpable: the former touches the data side, the latter the HTM.
func (c *Core) recordScout(in *isa.Inst, pc uint64, vals [3]int64, isNA [3]bool) {
	pj := &c.pj
	recs := pj.recs[pj.cur]
	switch in.Op.Class() {
	case isa.ClassLoad, isa.ClassStore, isa.ClassPrefetch:
		pj.bad = !isNA[0]
	case isa.ClassTx:
		pj.bad = true
	}
	if pj.bad || len(recs) >= periodMaxInsts {
		pj.bad = true
		return
	}
	r := periodRec{pc: pc, vals: vals, op: in.Op}
	for i, na := range isNA {
		if na {
			r.na |= 1 << i
		}
	}
	pj.recs[pj.cur] = append(recs, r)
}

// notePeriod runs at the end of a Step that reached a scout loop head.
func (c *Core) notePeriod() {
	pj := &c.pj
	sig := periodSig{pc: pj.headPC, cycles: c.cycle - pj.lastCycle, insts: c.seq - pj.lastSeq, episode: c.stats.ScoutEntries}
	switch {
	case pj.bad:
		// An episode's first loop head usually ends an unjumpable period.
		// At the cached period's head it still starts a chain, so that the
		// next head can re-arm from the cached period.
		pj.n = 0
		if pj.headPC == pj.ref.sig.pc {
			c.snapPeriod(&pj.snaps[0])
			pj.n = 1
		}
	default:
		// A chain's first period has nothing to match; a later period
		// unlike the one before starts a new chain here. A snapshot costs
		// a copy, not a compare.
		if pj.n >= 2 && sig != pj.sig {
			pj.n = 0
		}
		c.snapPeriod(&pj.snaps[pj.n%3])
		pj.n++
		switch {
		case pj.n == 2:
			if ref := &pj.ref; sig.loop() == ref.sig {
				c.armPeriod(&ref.s0, &ref.s1, ref.recs[0], ref.recs[1], pj.snaps[0].cycle)
			}
		case pj.n >= 3:
			s0, s1 := &pj.snaps[(pj.n-3)%3], &pj.snaps[(pj.n-2)%3]
			if c.armPeriod(s0, s1, pj.recs[pj.cur^1], pj.recs[pj.cur], s0.cycle) {
				c.keepPeriod(sig)
			}
		}
	}
	pj.sig, pj.lastCycle, pj.lastSeq = sig, c.cycle, c.seq
	pj.bad = false
	pj.cur ^= 1
	pj.recs[pj.cur] = pj.recs[pj.cur][:0]
}

// keepPeriod caches the period a chain of three snapshots just verified
// (the last two snapshots, the last two periods' records, the counter
// words it moved: what every jump credits) as the reference later
// chains compare their first period against.
func (c *Core) keepPeriod(sig periodSig) {
	pj := &c.pj
	ref := &pj.ref
	ref.sig = sig.loop()
	ref.s0, ref.s1 = pj.snaps[(pj.n-2)%3], pj.snaps[(pj.n-1)%3]
	ref.recs[0] = append(ref.recs[0][:0], pj.recs[pj.cur^1]...)
	ref.recs[1] = append(ref.recs[1][:0], pj.recs[pj.cur]...)
	ref.moved.stats.record(statsWords, unsafe.Pointer(&ref.s0.stats), unsafe.Pointer(&ref.s1.stats))
	ref.moved.pred.record(predWords, unsafe.Pointer(&ref.s0.pred), unsafe.Pointer(&ref.s1.pred))
}

// snapPeriod fills s with the state at this loop head.
func (c *Core) snapPeriod(s *periodSnap) {
	fe := c.fe.State()
	l1i := c.m.Hier.L1I(c.m.CoreID)
	s.cycle, s.seq, s.processed, s.sbHorizon = c.cycle, c.seq, c.processed, c.sbHorizon
	s.regState = c.regState
	s.stallUntil, s.lineReady = fe.StallUntil, fe.LineReady
	s.ghr = c.m.Pred.History()
	s.l1iStamp, s.l1i = l1i.Stamp(), l1i.Stats
	s.pred = c.m.Pred.Stats
	s.stats = c.stats
	s.fixed = periodFixed{
		mode:              c.mode,
		lens:              [6]int{len(c.ckpts), len(c.dq), len(c.ssb), len(c.pend), len(c.readSet), len(c.specFills)},
		pendMin:           c.pendMin,
		pendSeqMin:        c.pendSeqMin,
		dqStores:          c.dqStores,
		dqReady:           c.dqReady,
		secPending:        c.secPending,
		scoutTriggerSeq:   c.scoutTriggerSeq,
		scoutTriggerReady: c.scoutTriggerReady,
		forceProgressPC:   c.forceProgressPC,
		cohSeq:            c.cohSeq,
		scoutArmed:        c.scoutArmed,
		forceProgress:     c.forceProgress,
		resolveDirty:      c.resolveDirty,
		done:              c.done,
		txActive:          c.tx.active,
		quiet:             c.quiet,
		tblWrites:         c.m.Pred.TableWrites(),
		fltMut:            c.flt.Mutations(),
		pc:                fe.PC,
		lineAddr:          fe.LineAddr,
		pageNum:           fe.PageNum,
		haveLine:          fe.HaveLine,
	}
}

// armPeriod decides whether the period that just ended, between the
// chain's last two snapshots with its issues in pj.recs[pj.cur], repeats
// the reference period a0 to a1 exactly and, if so, arms a jump of as
// many whole periods as every bound allows. The caller has matched the
// two periods' signatures, so they span the same cycles and seqs. ref0
// and ref1 are the issue records of two consecutive repeating periods,
// whose difference is each operand's move per period; past is the cycle
// of the chain's first snapshot. It reports whether the periods repeat,
// whether or not a jump fits before the horizon.
func (c *Core) armPeriod(a0, a1 *periodSnap, ref0, ref1 []periodRec, past uint64) bool {
	pj := &c.pj
	b0, b1 := &pj.snaps[(pj.n-2)%3], &pj.snaps[(pj.n-1)%3]
	p, dseq := b1.cycle-b0.cycle, b1.seq-b0.seq
	if a0.fixed != a1.fixed || b0.fixed != b1.fixed || c.flt.Jittering(c.cycle) {
		return false
	}
	if !sameDelta(statsWords, unsafe.Pointer(&a0.stats), unsafe.Pointer(&a1.stats), unsafe.Pointer(&b0.stats), unsafe.Pointer(&b1.stats)) ||
		!sameDelta(predWords, unsafe.Pointer(&a0.pred), unsafe.Pointer(&a1.pred), unsafe.Pointer(&b0.pred), unsafe.Pointer(&b1.pred)) ||
		a1.processed-a0.processed != b1.processed-b0.processed {
		return false
	}
	// Only the predictor's lookup counters (stallMoves) may move: RAS
	// traffic, deferred training and TAGE allocation or decay change its
	// state.
	moved := b1.pred
	for _, o := range stallPred {
		*word(unsafe.Pointer(&moved), o) = *word(unsafe.Pointer(&b0.pred), o)
	}
	if moved != b0.pred {
		return false
	}
	// The L1I only hit, and every hit advanced its LRU clock.
	hits := b1.l1i
	hits.Hits = b0.l1i.Hits
	perRun := b1.l1iStamp - b0.l1iStamp
	if hits != b0.l1i || b1.l1i.Hits-b0.l1i.Hits != perRun || a1.l1iStamp-a0.l1iStamp != perRun {
		return false
	}
	clk := periodClock{p: p, past: past, h0: b0.cycle, h1: b1.cycle}
	if !clk.affine(a0.sbHorizon, a1.sbHorizon, b0.sbHorizon, b1.sbHorizon) ||
		!clk.affine(a0.stallUntil, a1.stallUntil, b0.stallUntil, b1.stallUntil) ||
		!clk.affine(a0.lineReady, a1.lineReady, b0.lineReady, b1.lineReady) ||
		a0.na != a1.na || b0.na != b1.na {
		return false
	}
	for r := range isa.NumRegs {
		d := b1.lastWriter[r] - b0.lastWriter[r]
		if a1.regs[r]-a0.regs[r] != b1.regs[r]-b0.regs[r] ||
			a1.lastWriter[r]-a0.lastWriter[r] != d || (d != 0 && d != dseq) ||
			!clk.affine(a0.readyAt[r], a1.readyAt[r], b0.readyAt[r], b1.readyAt[r]) {
			return false
		}
	}
	k, branches, ok := periodRecords(ref0, ref1, pj.recs[pj.cur])
	if !ok {
		return false
	}
	// The history register shifts in the same outcome bits every
	// period, and the bits the predictor reads already repeat.
	pattern := uint64(0)
	if branches > 0 && branches < 64 {
		pattern = b1.ghr & (uint64(1)<<branches - 1)
	}
	mask := c.m.Pred.HistoryMask()
	if (a0.ghr^a1.ghr)&mask != 0 || (b0.ghr^b1.ghr)&mask != 0 ||
		shiftHistory(a0.ghr, branches, pattern, 1) != a1.ghr || shiftHistory(b0.ghr, branches, pattern, 1) != b1.ghr {
		return false
	}
	if branches > 0 {
		k = min(k, c.m.Pred.DecayBudget()/uint64(branches))
	}
	// End before the first cycle at which anything outside the period
	// can change. Scout mode always waits on its trigger in pend.
	if len(c.pend) == 0 || !c.scoutArmed {
		return true
	}
	horizon := uint64(math.MaxUint64)
	for _, t := range [...]uint64{
		c.scoutTriggerReady,
		c.pendMin,
		c.m.Hier.NextDataFill(c.m.CoreID, c.cycle),
		c.flt.NextChange(c.cycle),
	} {
		if t == 0 {
			continue
		}
		if t <= c.cycle {
			return true
		}
		horizon = min(horizon, t)
	}
	k = min(k, (horizon-c.cycle)/p)
	if k == 0 {
		return true
	}
	pj.period, pj.end = p, c.cycle+k*p
	pj.branches, pj.pattern = branches, pattern
	pj.l1iSince, pj.l1iPerRun = b0.l1iStamp, perRun
	return true
}

// periodRecords compares the issues of the period that just ended, cur,
// with the reference records: ref0 and ref1 are two consecutive
// periods', whose difference is each operand's move per period (in a
// chain of three, ref1 is cur). It reports how many further periods the
// branches reading moving operands keep their outcomes for, how many
// direction updates (history shifts) a period makes, and whether the
// periods repeat at all.
func periodRecords(ref0, ref1, cur []periodRec) (k uint64, branches int, ok bool) {
	if len(ref0) != len(cur) || len(ref1) != len(cur) {
		return 0, 0, false
	}
	k = periodMaxJump
	for i := range cur {
		a, b := &ref0[i], &cur[i]
		if a.pc != b.pc || a.op != b.op || a.na != b.na {
			return 0, 0, false
		}
		cls := b.op.Class()
		if cls == isa.ClassBranch && b.na == 0 {
			branches++
		}
		var d [3]int64
		moving := false
		for j := range d {
			d[j] = ref1[i].vals[j] - a.vals[j]
			moving = moving || d[j] != 0
		}
		if !moving || b.na != 0 {
			// An issue with an NA operand consumes no value: its result
			// (if any) goes NA and a branch follows its prediction.
			continue
		}
		switch cls {
		case isa.ClassALU:
			if b.op != isa.OpAdd && b.op != isa.OpSub && b.op != isa.OpAddi {
				return 0, 0, false
			}
		case isa.ClassBranch:
			k = min(k, branchHolds(b.op, b.vals[0], b.vals[1], d[0], d[1]))
		case isa.ClassAtomic:
			// Scout poisons an atomic's result without using its operands.
		default:
			// A moving jalr target, or anything not modelled above.
			return 0, 0, false
		}
	}
	return k, branches, true
}

// periodClock is what a cycle-valued field is checked against: the
// period p, the cycle of the chain's first snapshot, and the cycles of
// the last period's two heads.
type periodClock struct{ p, past, h0, h1 uint64 }

// affine reports whether a cycle-valued field, sampled at the two heads
// of the reference period (v0, v1) and of the period that just ended
// (w0, w1), behaves the same in every later period. Each such field is
// only compared with the clock and only ever set to the clock plus a
// latency (or the larger of that and itself), so any two values at or
// before the clock act alike. Either the reference moved it by p, and
// the last period did too or rewrote a value that lay in the past at
// its first head with one that lies in the past at its second (a
// chain's first head can carry an older value than later heads); or it
// held still in both at a value no later than past.
func (k periodClock) affine(v0, v1, w0, w1 uint64) bool {
	if v1-v0 == k.p {
		return w1-w0 == k.p || w0 != w1 && w0 <= k.h0 && w1 <= k.h1
	}
	return v0 == v1 && w0 == w1 && w1 <= k.past
}

// shiftHistory shifts k periods' outcome bits into the history register
// g: branches bits per period, always pattern. Past 64 bits the register
// holds only the repeating pattern, so at most 64 shifts are applied.
func shiftHistory(g uint64, branches int, pattern uint64, k uint64) uint64 {
	if branches == 0 || branches >= 64 {
		return g
	}
	for i := uint64(0); i < k && i < 64; i++ {
		g = g<<branches | pattern
	}
	return g
}

// branchHolds returns how many further periods (up to periodMaxJump) a
// branch comparing a and b, which move by da and db per period, keeps
// its outcome for. Every input must lie within ±2^31, so that no value
// the branch can see in periodMaxJump periods wraps and the comparison
// is exact in int64; an unsigned comparison must also keep both
// operands non-negative, where it orders as the signed one does.
// Anything else answers 0 and the loop is stepped.
func branchHolds(op isa.Op, a, b, da, db int64) uint64 {
	if !small(a) || !small(b) || !small(da) || !small(db) {
		return 0
	}
	k := int64(periodMaxJump)
	if op == isa.OpBltu || op == isa.OpBgeu {
		for _, v := range [...][2]int64{{a, da}, {b, db}} {
			switch {
			case v[0] < 0:
				return 0
			case v[1] < 0:
				k = min(k, v[0]/-v[1])
			}
		}
	}
	// The outcome is the sign of diff = b - a (its zero-ness for
	// equality), linear in the period count: it can change only where
	// diff reaches zero, from either side. Stop one period short.
	diff, dd := b-a, db-da
	switch {
	case dd == 0 || diff != 0 && (diff > 0) == (dd > 0):
	case diff == 0:
		return 0
	default:
		n := (abs(diff) + abs(dd) - 1) / abs(dd) // the first n with |diff| <= n*|dd|
		k = min(k, n-1)
	}
	return uint64(max(k, 0))
}

// small reports whether |v| < 2^31: v + n*dv for n up to periodMaxJump
// and |dv| < 2^31 then stays far inside int64.
func small(v int64) bool { return v > -1<<31 && v < 1<<31 }

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// skipPeriods credits the whole periods up to target and steps the rest.
func (c *Core) skipPeriods(target uint64) {
	pj := &c.pj
	k := (target - c.cycle) / pj.period
	pj.end = 0
	if k > 0 {
		c.creditPeriods(k)
	}
	for c.cycle < target && !c.done && c.err == nil {
		c.Step()
	}
}

// creditPeriods applies k periods' deltas: the cached period's counter
// moves (equal to the last period's), and the last period's change of
// every register and cycle- or seq-valued field, times k; k periods'
// samples into the occupancy histograms; k periods' outcome bits into
// the history register; and k periods' hits into the L1I.
func (c *Core) creditPeriods(k uint64) {
	pj := &c.pj
	s1, s2 := &pj.snaps[(pj.n-2)%3], &pj.snaps[(pj.n-1)%3]
	n := k * pj.period
	c.credit(&pj.ref.moved, k, n)
	pred := c.m.Pred
	pred.SetHistory(shiftHistory(pred.History(), pj.branches, pj.pattern, k))
	pred.CreditDirUpdates(uint64(pj.branches) * k)
	// A cycle-valued field the period rewrote moves by the period (see
	// periodClock.affine); one it left alone holds still.
	clock := func(w0, w1 uint64) uint64 {
		if w0 != w1 {
			return n
		}
		return 0
	}
	for r := range isa.NumRegs {
		c.regs[r] += (s2.regs[r] - s1.regs[r]) * int64(k)
		c.lastWriter[r] += (s2.lastWriter[r] - s1.lastWriter[r]) * k
		c.readyAt[r] += clock(s1.readyAt[r], s2.readyAt[r])
	}
	c.seq += (s2.seq - s1.seq) * k
	c.processed += (s2.processed - s1.processed) * k
	c.sbHorizon += clock(s1.sbHorizon, s2.sbHorizon)
	c.fe.ShiftTiming(clock(s1.stallUntil, s2.stallUntil), clock(s1.lineReady, s2.lineReady))
	// Every line the period fetched holds one of its issues, and every
	// period fetches the same lines (the records of the last one are
	// pj.recs[pj.cur^1] since notePeriod rotated them).
	pj.fetch = pj.fetch[:0]
	for _, r := range pj.recs[pj.cur^1] {
		pj.fetch = append(pj.fetch, r.pc)
	}
	c.m.Hier.CreditFetchHits(c.m.CoreID, pj.fetch, pj.l1iSince, pj.l1iPerRun*k)
	c.cycle += n
	// The landing point is a loop head: the next period may match the
	// signature at once, but the snapshots are stale.
	pj.n = 0
	pj.lastCycle, pj.lastSeq = c.cycle, c.seq
}

// sameDelta reports whether every counter moved as much from a0 to a1
// as from b0 to b1.
func sameDelta(offs []uintptr, a0, a1, b0, b1 unsafe.Pointer) bool {
	for _, o := range offs {
		if *word(a1, o)-*word(a0, o) != *word(b1, o)-*word(b0, o) {
			return false
		}
	}
	return true
}
