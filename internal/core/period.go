package core

import (
	"math"
	"reflect"
	"unsafe"

	"rocksim/internal/bpred"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/stats"
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
//     prefetch, no transaction op and at most periodMaxInsts issues, and
//     a cheap signature (branch PC, cycles and instructions since the
//     previous head, the scout episode) must match the previous
//     period's. A period that passes extends a chain of loop-head
//     snapshots (periodSnap); one that passes with a new signature
//     starts a chain; the full compare runs only on a chain of three.
//   - Three consecutive snapshots must show two periods with equal
//     deltas: every counter (the statistics, the predictor's lookup
//     counters, L1I hits and the LRU clock), seq, every register value;
//     lastWriter moving by the seq delta or not at all; every cycle-
//     valued field (readyAt, sbHorizon, the frontend's bubble end and
//     line-ready cycle) moving by the period or lying in the past; and
//     everything else — mode, list lengths, NA bits, the fetch point,
//     the fault injector's and the predictor tables' mutation counts —
//     holding still. The history register must shift in the same
//     outcome bits every period, with the bits the predictor reads
//     already stable, so every period indexes the same table entries.
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
		pj.n = 0
	case sig != pj.sig:
		// A period unlike the last starts a new chain. Snapshotting it
		// costs a copy, not a compare; it lets the compare run as soon as
		// two more periods repeat it.
		pj.n = 0
		c.snapPeriod(&pj.snaps[0])
		pj.n = 1
	default:
		c.snapPeriod(&pj.snaps[pj.n%3])
		pj.n++
		if pj.n >= 3 {
			c.armPeriod()
		}
	}
	pj.sig, pj.lastCycle, pj.lastSeq = sig, c.cycle, c.seq
	pj.bad = false
	pj.cur ^= 1
	pj.recs[pj.cur] = pj.recs[pj.cur][:0]
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

// armPeriod decides whether the last two periods repeat exactly and, if
// so, arms a jump of as many whole periods as every bound allows.
func (c *Core) armPeriod() {
	pj := &c.pj
	s0, s1, s2 := &pj.snaps[(pj.n-3)%3], &pj.snaps[(pj.n-2)%3], &pj.snaps[(pj.n-1)%3]
	p := s2.cycle - s1.cycle
	dseq := s2.seq - s1.seq
	if s0.fixed != s1.fixed || s1.fixed != s2.fixed || c.flt.Jittering(c.cycle) {
		return
	}
	if !sameDelta(statsWords, unsafe.Pointer(&s0.stats), unsafe.Pointer(&s1.stats), unsafe.Pointer(&s2.stats)) ||
		!sameDelta(predWords, unsafe.Pointer(&s0.pred), unsafe.Pointer(&s1.pred), unsafe.Pointer(&s2.pred)) ||
		s1.processed-s0.processed != s2.processed-s1.processed {
		return
	}
	// Only the predictor's lookup counters may move: RAS traffic,
	// deferred training and TAGE allocation or decay change its state.
	moved := s2.pred
	moved.DirLookups, moved.DirMispredict, moved.TageProviderHits = s1.pred.DirLookups, s1.pred.DirMispredict, s1.pred.TageProviderHits
	moved.BTBLookups, moved.BTBMisses = s1.pred.BTBLookups, s1.pred.BTBMisses
	if moved != s1.pred {
		return
	}
	// The L1I only hit, and every hit advanced its LRU clock.
	hits := s2.l1i
	hits.Hits = s1.l1i.Hits
	perRun := s2.l1iStamp - s1.l1iStamp
	if hits != s1.l1i || s2.l1i.Hits-s1.l1i.Hits != perRun || s1.l1iStamp-s0.l1iStamp != perRun {
		return
	}
	past := s0.cycle
	if !clockAffine(s0.sbHorizon, s1.sbHorizon, s2.sbHorizon, p, past) ||
		!clockAffine(s0.stallUntil, s1.stallUntil, s2.stallUntil, p, past) ||
		!clockAffine(s0.lineReady, s1.lineReady, s2.lineReady, p, past) ||
		s0.na != s1.na || s1.na != s2.na {
		return
	}
	for r := range isa.NumRegs {
		d := s2.lastWriter[r] - s1.lastWriter[r]
		if s1.regs[r]-s0.regs[r] != s2.regs[r]-s1.regs[r] ||
			s1.lastWriter[r]-s0.lastWriter[r] != d || (d != 0 && d != dseq) ||
			!clockAffine(s0.readyAt[r], s1.readyAt[r], s2.readyAt[r], p, past) {
			return
		}
	}
	k, branches, ok := c.periodRecords()
	if !ok {
		return
	}
	// The history register shifts in the same outcome bits every
	// period, and the bits the predictor reads already repeat.
	pattern := uint64(0)
	if branches > 0 && branches < 64 {
		pattern = s2.ghr & (uint64(1)<<branches - 1)
	}
	mask := c.m.Pred.HistoryMask()
	if (s0.ghr^s1.ghr)&mask != 0 || (s1.ghr^s2.ghr)&mask != 0 ||
		shiftHistory(s0.ghr, branches, pattern, 1) != s1.ghr || shiftHistory(s1.ghr, branches, pattern, 1) != s2.ghr {
		return
	}
	if branches > 0 {
		k = min(k, c.m.Pred.DecayBudget()/uint64(branches))
	}
	// End before the first cycle at which anything outside the period
	// can change. Scout mode always waits on its trigger in pend.
	if len(c.pend) == 0 || !c.scoutArmed {
		return
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
			return
		}
		horizon = min(horizon, t)
	}
	k = min(k, (horizon-c.cycle)/p)
	if k == 0 {
		return
	}
	pj.period, pj.end = p, c.cycle+k*p
	pj.branches, pj.pattern = branches, pattern
	pj.l1iSince, pj.l1iPerRun = s1.l1iStamp, perRun
}

// periodRecords compares the last two periods' issues. It reports how
// many further periods the branches reading moving operands keep their
// outcomes for, how many direction updates (history shifts) a period
// makes, and whether the periods repeat at all.
func (c *Core) periodRecords() (k uint64, branches int, ok bool) {
	pj := &c.pj
	prev, cur := pj.recs[pj.cur^1], pj.recs[pj.cur]
	if len(prev) != len(cur) {
		return 0, 0, false
	}
	k = periodMaxJump
	for i := range cur {
		a, b := &prev[i], &cur[i]
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
			d[j] = b.vals[j] - a.vals[j]
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

// clockAffine reports whether a cycle-valued field sampled at three
// loop heads either moves with the clock (by the period p each time) or
// holds a value no later than past, so no comparison with the clock can
// change its answer.
func clockAffine(v0, v1, v2, p, past uint64) bool {
	return (v1-v0 == p && v2-v1 == p) || (v0 == v1 && v1 == v2 && v2 <= past)
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

// creditPeriods applies k periods' deltas: the last period's change of
// every counter, register and cycle- or seq-valued field, times k; k
// periods' samples into the occupancy histograms; k periods' outcome
// bits into the history register; and k periods' hits into the L1I.
func (c *Core) creditPeriods(k uint64) {
	pj := &c.pj
	s1, s2 := &pj.snaps[(pj.n-2)%3], &pj.snaps[(pj.n-1)%3]
	n := k * pj.period
	addDelta(statsWords, unsafe.Pointer(&c.stats), unsafe.Pointer(&s1.stats), unsafe.Pointer(&s2.stats), k)
	c.stats.DQOcc.AddN(len(c.dq), n)
	c.stats.SSBOcc.AddN(len(c.ssb), n)
	c.stats.CkptOcc.AddN(len(c.ckpts), n)
	pred := c.m.Pred
	addDelta(predWords, unsafe.Pointer(&pred.Stats), unsafe.Pointer(&s1.pred), unsafe.Pointer(&s2.pred), k)
	pred.SetHistory(shiftHistory(pred.History(), pj.branches, pj.pattern, k))
	pred.CreditDirUpdates(uint64(pj.branches) * k)
	for r := range isa.NumRegs {
		c.regs[r] += (s2.regs[r] - s1.regs[r]) * int64(k)
		c.lastWriter[r] += (s2.lastWriter[r] - s1.lastWriter[r]) * k
		c.readyAt[r] += (s2.readyAt[r] - s1.readyAt[r]) * k
	}
	c.seq += (s2.seq - s1.seq) * k
	c.processed += (s2.processed - s1.processed) * k
	c.sbHorizon += (s2.sbHorizon - s1.sbHorizon) * k
	c.fe.ShiftTiming((s2.stallUntil-s1.stallUntil)*k, (s2.lineReady-s1.lineReady)*k)
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

// statsWords and predWords are the byte offsets of every counter in
// Stats and bpred.Stats. wordOffsets panics on a field that is neither a
// uint64 counter nor an occupancy histogram, so a field added to either
// block must come with a credit rule before any core can run.
var (
	statsWords = wordOffsets(reflect.TypeOf(Stats{}), 0, nil)
	predWords  = wordOffsets(reflect.TypeOf(bpred.Stats{}), 0, nil)
)

// wordOffsets appends the offset of every uint64 in t, descending into
// structs and arrays; *stats.Hist fields are credited by AddN instead.
func wordOffsets(t reflect.Type, base uintptr, out []uintptr) []uintptr {
	switch t.Kind() {
	case reflect.Uint64:
		return append(out, base)
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			out = wordOffsets(f.Type, base+f.Offset, out)
		}
	case reflect.Array:
		for i := range t.Len() {
			out = wordOffsets(t.Elem(), base+uintptr(i)*t.Elem().Size(), out)
		}
	default:
		if t != reflect.TypeOf((*stats.Hist)(nil)) {
			panic("core: " + t.String() + " in a statistics block has no period-jump credit rule")
		}
	}
	return out
}

func word(p unsafe.Pointer, off uintptr) *uint64 { return (*uint64)(unsafe.Add(p, off)) }

// sameDelta reports whether every counter moved as much from a to b as
// from b to c.
func sameDelta(offs []uintptr, a, b, c unsafe.Pointer) bool {
	for _, o := range offs {
		if *word(b, o)-*word(a, o) != *word(c, o)-*word(b, o) {
			return false
		}
	}
	return true
}

// addDelta adds k times each counter's move from a to b into dst.
func addDelta(offs []uintptr, dst, a, b unsafe.Pointer, k uint64) {
	for _, o := range offs {
		*word(dst, o) += (*word(b, o) - *word(a, o)) * k
	}
}
