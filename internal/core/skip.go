package core

import (
	"reflect"
	"slices"
	"unsafe"

	"rocksim/internal/bpred"
	"rocksim/internal/cpu"
	"rocksim/internal/obs"
	"rocksim/internal/stats"
)

// This file implements cpu.FastForwarder for the SST core: proving that
// a cycle was a pure stall, finding the earliest future cycle at which
// anything can change, and bulk-crediting the skipped cycles so every
// counter, histogram and sink emission is bit-identical to naive
// stepping. It also holds the core's one credit rule (credit), which
// the scout period jump (period.go) shares: a repetition of a recorded
// interval — one pure-stall cycle or one loop period — is credited as
// the counter words it moved, each with its move.
//
// Purity is established by snapshotting — at Step entry — every piece
// of state a stall cycle is forbidden to touch, and comparing at Step
// exit. The set errs on the side of inclusion: it is the whole
// statistics block and the predictor's counters, less one declared list
// of words a pure stall may move (stallMoves: the time-indexed
// statistics and the four predictor lookup counters). noteStall records
// which of those words moved, brings the snapshot's copies up to date
// and compares the blocks whole, so any replay, commit, rollback,
// checkpoint take, scout entry or transaction event — and any counter
// added later — marks the cycle unskippable, as do a delivery, a mode
// change, a predictor change beyond a lookup (a jalr retry may pop the
// RAS, and training moves the history register) or a fault-injector
// query (clamp probes record per retry inside an active window). A pure
// lookup is replicable: a deferred branch retried against a full DQ
// consults the direction predictor every cycle, and a jalr retry
// waiting out a BTB miss looks the target up again, while the tables
// and history they read hold still. SkipTo credits the recorded words
// once per skipped cycle.
//
// The snapshot copies the whole statistics block, so Step takes it only
// after snapAfterQuiet consecutive quiet cycles — longer than the two
// quiet cycles of a taken-branch redirect. A busy loop of progress and
// redirects then never pays for it, and a real stall opens its window
// two cycles later than a check after one quiet cycle would. That delay
// is unobservable: a skipped cycle is bit-identical to a stepped one.

var _ cpu.FastForwarder = (*Core)(nil)

// stepSnap is the Step-entry snapshot backing the purity check: the
// whole statistics block plus the non-statistics state a stall cycle
// must not touch.
type stepSnap struct {
	stats   Stats
	seq     uint64
	mode    Mode
	pendLen int
	pred    bpred.Stats
	ghr     uint64
	fltMut  uint64
}

// snapInto fills s with the Step-entry state. It writes through a
// pointer into the one buffer the core reuses, which Step fills only on
// detection cycles.
func (c *Core) snapInto(s *stepSnap) {
	s.stats = c.stats
	s.seq = c.seq
	s.mode = c.mode
	s.pendLen = len(c.pend)
	s.pred = c.m.Pred.Stats
	s.ghr = c.m.Pred.History()
	s.fltMut = c.flt.Mutations()
}

// noteStall runs at the end of Step: if the cycle was a replicable pure
// stall it records the counter words the cycle moved (c.ff) and the
// skip horizon, otherwise it leaves fast-forwarding disabled. Only the
// declared words (stallStats, stallPred) may move; noteStall brings the
// snapshot's copies of those it saw move up to date, so any other
// counter that moved fails the whole-block compare.
func (c *Core) noteStall(s *stepSnap, executed, replayed int, now uint64) {
	if executed != 0 || replayed != 0 || c.done || c.err != nil ||
		c.seq != s.seq || c.mode != s.mode || len(c.pend) != s.pendLen ||
		c.m.Pred.History() != s.ghr || c.flt.Mutations() != s.fltMut {
		return
	}
	// A horizon of now+1 (or none) opens no skip window; settle that
	// before the whole-block comparison.
	next := c.nextTimer(now)
	if next <= now+1 {
		return
	}
	ff := &c.ff
	ff.stats.record(stallStats, unsafe.Pointer(&s.stats), unsafe.Pointer(&c.stats))
	ff.pred.record(stallPred, unsafe.Pointer(&s.pred), unsafe.Pointer(&c.m.Pred.Stats))
	ff.stats.add(unsafe.Pointer(&s.stats), 1)
	ff.pred.add(unsafe.Pointer(&s.pred), 1)
	if c.stats != s.stats || c.m.Pred.Stats != s.pred {
		return
	}
	c.ffNext = next
}

// nextTimer returns the earliest cycle strictly after now at which the
// core's state can change (0 = nothing pending): a deferred result
// delivering, a scoreboarded register becoming ready, the frontend
// finishing a bubble or line fill, a data-side MSHR fill moving the
// outstanding-miss count, or the fault plan entering a new regime.
func (c *Core) nextTimer(now uint64) uint64 {
	var next uint64
	bound := func(t uint64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	bound(c.fe.NextDelivery(now))
	for i := range c.pend {
		if c.pend[i].blocked {
			// No arrival time exists yet: the release is event-driven,
			// and the enabling resolution always breaks stall purity.
			continue
		}
		bound(c.pend[i].ready)
	}
	// sbHorizon is a monotonic upper bound on every readyAt value ever
	// written; once the clock passes it the whole scoreboard is quiescent
	// and the scan is skippable (rollback only restores values an earlier
	// write already folded into the horizon).
	if c.sbHorizon > now {
		for _, t := range c.readyAt {
			bound(t)
		}
	}
	bound(c.m.Hier.NextDataFill(c.m.CoreID, now))
	if c.flt != nil {
		bound(c.flt.NextChange(now))
	}
	return next
}

// NextEvent implements cpu.FastForwarder. It reports the pure-stall
// horizon recorded by the last Step, or the end of the scout period jump
// the last Step armed (period.go); once the clock reaches it, or any
// Step runs, the answer decays to 0 and the core must be stepped
// naively.
func (c *Core) NextEvent() uint64 {
	if c.cohSeq != 0 || (c.tx.active && c.tx.abort != 0) {
		// A remote store scheduled a coherence rollback or transaction
		// abort after this cycle's purity was established (the listener
		// fires during another core's Step, possibly after ours recorded
		// a stall horizon). The repair must run at the very next cycle,
		// exactly where naive stepping would apply it.
		return 0
	}
	if c.ffNext > c.cycle {
		return c.ffNext
	}
	return c.pj.end
}

// SkipTo implements cpu.FastForwarder: it credits cycles
// [Cycle(), target) exactly as repeating the recorded pure-stall Step
// would, then advances the clock to target. With a scout period jump
// armed it credits the whole periods up to target and steps the rest.
func (c *Core) SkipTo(target uint64) {
	if target <= c.cycle {
		return
	}
	if c.pj.end != 0 {
		c.skipPeriods(target)
		return
	}
	n := target - c.cycle
	c.credit(&c.ff, n, n)
	if c.sink != nil {
		c.occ[0], c.occ[1], c.occ[2], c.occ[3] = len(c.dq), len(c.ssb), len(c.ckpts), len(c.pend)
		obs.EmitCycleRun(c.sink, c.cycle, target, c.mode.String(), c.occ[:])
	}
	c.cycle = target
}

// credit is a recorded interval's move: every counter word it moved in
// Stats and in bpred.Stats, with the move.
type credit struct{ stats, pred wordMoves }

// wordMoves lists counter words by byte offset, each with its move.
type wordMoves []wordMove

type wordMove struct {
	off uintptr
	d   uint64
}

// record sets ms to the words at offs that differ from a to b, each
// with its move.
func (ms *wordMoves) record(offs []uintptr, a, b unsafe.Pointer) {
	*ms = (*ms)[:0]
	for _, o := range offs {
		if d := *word(b, o) - *word(a, o); d != 0 {
			*ms = append(*ms, wordMove{o, d})
		}
	}
}

// add adds k times each move into the block at dst.
func (ms wordMoves) add(dst unsafe.Pointer, k uint64) {
	for _, m := range ms {
		*word(dst, m.off) += m.d * k
	}
}

// credit adds k repetitions of cr's moves and n cycles of the current
// occupancy to the histograms.
func (c *Core) credit(cr *credit, k, n uint64) {
	cr.stats.add(unsafe.Pointer(&c.stats), k)
	cr.pred.add(unsafe.Pointer(&c.m.Pred.Stats), k)
	c.stats.DQOcc.AddN(len(c.dq), n)
	c.stats.SSBOcc.AddN(len(c.ssb), n)
	c.stats.CkptOcc.AddN(len(c.ckpts), n)
}

// stallMoves names every counter a pure stall cycle may move: the
// time-indexed statistics (the clock, the CPI stack, MLP samples, mode
// cycles, the per-cycle stall counters) and the predictor's lookup
// counters. Every other word must hold still across a skippable cycle.
var stallMoves = []string{
	"Cycles", "CPI", "MLPSamples", "MLPSum", "ModeCycles",
	"DQFullStallCycles", "SSBFullStallCycles", "AtomicStallCycles",
	"SecureDelayStallCycles", "SecureNoFwdStallCycles", "SecureSSBStallCycles",
	"DirLookups", "TageProviderHits", "BTBLookups", "BTBMisses",
}

// statsWords and predWords are the byte offsets of every counter in
// Stats and bpred.Stats; stallStats and stallPred those of stallMoves.
// wordOffsets panics on a field that is neither a uint64 counter nor an
// occupancy histogram, so a field added to either block must come with
// a credit rule before any core can run.
var (
	statsWords = wordOffsets(reflect.TypeOf(Stats{}), 0, nil, nil)
	predWords  = wordOffsets(reflect.TypeOf(bpred.Stats{}), 0, nil, nil)
	stallStats = wordOffsets(reflect.TypeOf(Stats{}), 0, stallMoves, nil)
	stallPred  = wordOffsets(reflect.TypeOf(bpred.Stats{}), 0, stallMoves, nil)
)

// wordOffsets appends the offset of every uint64 in t, descending into
// structs and arrays; *stats.Hist fields are credited by AddN instead.
// With names, it keeps only the words inside fields of those names.
func wordOffsets(t reflect.Type, base uintptr, names []string, out []uintptr) []uintptr {
	switch t.Kind() {
	case reflect.Uint64:
		if names == nil {
			out = append(out, base)
		}
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			sub := names
			if slices.Contains(names, f.Name) {
				sub = nil
			}
			out = wordOffsets(f.Type, base+f.Offset, sub, out)
		}
	case reflect.Array:
		for i := range t.Len() {
			out = wordOffsets(t.Elem(), base+uintptr(i)*t.Elem().Size(), names, out)
		}
	default:
		if t != reflect.TypeOf((*stats.Hist)(nil)) {
			panic("core: " + t.String() + " in a statistics block has no credit rule")
		}
	}
	return out
}

func word(p unsafe.Pointer, off uintptr) *uint64 { return (*uint64)(unsafe.Add(p, off)) }
