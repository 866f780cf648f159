// Package inorder implements the baseline in-order core: a W-wide,
// stall-on-use pipeline with a scoreboard, a small store buffer, and no
// speculation beyond branch prediction. It is the "conventional in-order
// core" that SST is measured against, and — because it shares the ISA,
// frontend, predictor and memory hierarchy with the other models — also
// the architectural reference point for their timing.
package inorder

import (
	"rocksim/internal/cpu"
	"rocksim/internal/isa"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
)

// Config parameterizes the in-order core.
type Config struct {
	// Width is the issue width (instructions per cycle).
	Width int
	// MaxOutstandingLoads bounds loads in flight (stall-on-use allows a
	// few overlapped misses before a dependent use arrives).
	MaxOutstandingLoads int
	// StoreBufferSize bounds committed-but-unwritten stores.
	StoreBufferSize int
	// TakenPenalty is the fetch bubble for a correctly predicted taken
	// branch or jump.
	TakenPenalty uint64
	// MispredictPenalty is the fetch bubble for a mispredicted branch.
	MispredictPenalty uint64
}

// DefaultConfig returns a Niagara-class 2-wide in-order core.
func DefaultConfig() Config {
	return Config{
		Width:               2,
		MaxOutstandingLoads: 4,
		StoreBufferSize:     8,
		TakenPenalty:        2,
		MispredictPenalty:   8,
	}
}

// StallKind classifies why an issue cycle made no progress.
type StallKind int

// Stall classifications.
const (
	StallNone StallKind = iota
	StallFetch
	StallRedirect
	StallData
	StallLoadLimit
	StallStoreBuffer
	numStalls
)

// Stats extends the common statistics with in-order stall accounting.
type Stats struct {
	cpu.BaseStats
	StallCycles [numStalls]uint64
}

// stallNames label StallCycles entries in exports (index = StallKind).
var stallNames = [numStalls]string{
	"none", "fetch", "redirect", "data", "load_limit", "store_buffer",
}

// PublishObs publishes the common core counter set plus the in-order
// stall breakdown under "inorder/".
func (s *Stats) PublishObs(r *obs.Registry) {
	s.BaseStats.PublishObs(r)
	for k := StallKind(1); k < numStalls; k++ {
		r.Counter("inorder/stall/" + stallNames[k]).Set(s.StallCycles[k])
	}
}

// Core is the in-order pipeline model.
type Core struct {
	cfg Config
	m   *cpu.Machine
	fe  *cpu.Frontend

	regs    [isa.NumRegs]int64
	readyAt [isa.NumRegs]uint64 // scoreboard: cycle the register value is usable

	// sbHorizon is a monotonic upper bound on every readyAt value ever
	// written. Once the clock passes it, no register is still waiting and
	// nextTimer skips the scoreboard scan.
	sbHorizon uint64

	loadsInFlight []uint64 // completion cycles of outstanding loads
	storeBuf      []uint64 // completion cycles of buffered stores

	cycle uint64
	done  bool
	err   error

	stats Stats
	sink  obs.Sink
	occ   [2]int

	// Fast-forward state, valid while cycle < ffNext: the last Step was a
	// pure stall of kind ffStall with ffMLP outstanding data misses, and
	// no core state can change before cycle ffNext. Self-expiring: once
	// the clock reaches ffNext (by skip or by interleaved Ticks), NextEvent
	// reports no skip and the next Step re-derives everything.
	ffNext  uint64
	ffStall StallKind
	ffMLP   int
}

var _ cpu.FastForwarder = (*Core)(nil)

// inorderOccNames are the occupancy tracks reported through the sink.
var inorderOccNames = []string{"loads_inflight", "store_buffer"}

// SetSink installs an observability sink (nil disables).
func (c *Core) SetSink(s obs.Sink) {
	c.sink = s
	if s != nil {
		s.Attach("inorder", inorderOccNames)
	}
}

// New creates an in-order core executing from entry.
func New(m *cpu.Machine, cfg Config, entry uint64) *Core {
	if cfg.Width < 1 {
		cfg.Width = 1
	}
	return &Core{cfg: cfg, m: m, fe: cpu.NewFrontend(m, entry)}
}

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// Done reports whether the program has halted.
func (c *Core) Done() bool { return c.done }

// Retired returns committed instructions.
func (c *Core) Retired() uint64 { return c.stats.Retired }

// Base returns the common statistics block.
func (c *Core) Base() *cpu.BaseStats { return &c.stats.BaseStats }

// Stats returns the full in-order statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// Err returns a fatal simulation error, if any.
func (c *Core) Err() error { return c.err }

// Regs returns the architectural register file (for test validation).
func (c *Core) Regs() [isa.NumRegs]int64 { return c.regs }

// stallBucket maps an issue-loop stall to its cycle-accounting bucket.
// A data stall with misses outstanding is a memory wait (mshr); without,
// it is a plain scoreboard wait on a short-latency producer.
func stallBucket(k StallKind, outstanding int) cpu.Bucket {
	switch k {
	case StallFetch, StallRedirect:
		return cpu.BktFetch
	case StallData:
		if outstanding > 0 {
			return cpu.BktMSHR
		}
		return cpu.BktScoreboard
	case StallLoadLimit:
		return cpu.BktMSHR
	case StallStoreBuffer:
		return cpu.BktStoreBuf
	}
	return cpu.BktScoreboard
}

func pruneTimes(ts []uint64, now uint64) []uint64 {
	live := ts[:0]
	for _, t := range ts {
		if t > now {
			live = append(live, t)
		}
	}
	return live
}

func (c *Core) read(r uint8) int64 {
	if r == isa.RegZero {
		return 0
	}
	return c.regs[r]
}

func (c *Core) write(r uint8, v int64, ready uint64) {
	if r == isa.RegZero {
		return
	}
	c.regs[r] = v
	c.readyAt[r] = ready
	c.sbHorizon = max(c.sbHorizon, ready)
}

// Tick advances the core's clock one cycle without issuing anything:
// the cycle belongs to another hardware thread sharing the pipeline
// (used by the SMT wrapper). Buffers still drain with time.
func (c *Core) Tick() {
	now := c.cycle
	c.loadsInFlight = pruneTimes(c.loadsInFlight, now)
	c.storeBuf = pruneTimes(c.storeBuf, now)
	c.stats.SampleMLP(c.m.Hier.OutstandingDataMisses(c.m.CoreID, now))
	c.stats.CPI[cpu.BktSMTIdle]++
	c.stats.Cycles++
	c.cycle++
}

// Step advances the core one cycle.
func (c *Core) Step() {
	now := c.cycle
	c.loadsInFlight = pruneTimes(c.loadsInFlight, now)
	c.storeBuf = pruneTimes(c.storeBuf, now)

	issued := 0
	stall := StallNone
issueLoop:
	for issued < c.cfg.Width && !c.done {
		if c.fe.Stalled(now) {
			stall = StallRedirect
			break
		}
		next, pc, ok, err := c.fe.Next(now)
		if err != nil {
			c.err = err
			return
		}
		if !ok {
			stall = StallFetch
			break
		}
		in := *next
		// Scoreboard check: stall-on-use.
		for i, n := 0, in.NumSrcs(); i < n; i++ {
			if r := in.Src(i); r != isa.RegZero && c.readyAt[r] > now {
				stall = StallData
				break issueLoop
			}
		}

		redirected := false
		switch in.Op.Class() {
		case isa.ClassNop, isa.ClassBarrier:
			if in.Op == isa.OpMembar && len(c.storeBuf) > 0 {
				stall = StallStoreBuffer
				break issueLoop
			}
		case isa.ClassHalt:
			if len(c.storeBuf) > 0 || len(c.loadsInFlight) > 0 {
				stall = StallStoreBuffer
				break issueLoop
			}
			c.done = true
		case isa.ClassALU:
			v := isa.ALUResult(in, c.read(in.Rs1), c.read(in.Rs2))
			c.write(in.Rd, v, now+uint64(in.Op.Latency()))
		case isa.ClassLoad:
			if len(c.loadsInFlight) >= c.cfg.MaxOutstandingLoads {
				stall = StallLoadLimit
				break issueLoop
			}
			addr := uint64(c.read(in.Rs1) + int64(in.Imm))
			res := c.m.Hier.AccessLoad(c.m.CoreID, addr, pc, now)
			raw := c.m.Mem.Read(addr, in.Op.MemWidth())
			c.write(in.Rd, isa.ExtendLoad(in.Op, raw), res.Ready)
			c.loadsInFlight = append(c.loadsInFlight, res.Ready)
			c.stats.Loads++
			c.stats.CountLoadLevel(res.Level)
		case isa.ClassStore:
			if len(c.storeBuf) >= c.cfg.StoreBufferSize {
				stall = StallStoreBuffer
				break issueLoop
			}
			addr := uint64(c.read(in.Rs1) + int64(in.Imm))
			c.m.Mem.Write(addr, in.Op.MemWidth(), uint64(c.read(in.Rs2)))
			res := c.m.Hier.Access(c.m.CoreID, mem.AccWrite, addr, now)
			c.storeBuf = append(c.storeBuf, res.Ready)
			c.m.StoreVisible(addr)
			c.stats.Stores++
		case isa.ClassBranch:
			redirected = c.branch(in, pc, now)
		case isa.ClassJump:
			redirected = c.jump(in, pc, now)
		case isa.ClassAtomic:
			// cas: executes non-speculatively with the line in hand.
			addr := uint64(c.read(in.Rs1))
			res := c.m.Hier.Access(c.m.CoreID, mem.AccWrite, addr, now)
			old := int64(c.m.Mem.Read(addr, 8))
			if old == c.read(in.Rs2) {
				c.m.Mem.Write(addr, 8, uint64(c.read(in.Rd)))
				c.m.StoreVisible(addr)
			}
			c.write(in.Rd, old, res.Ready)
			c.stats.Stores++
		case isa.ClassPrefetch:
			addr := uint64(c.read(in.Rs1) + int64(in.Imm))
			c.m.Hier.Access(c.m.CoreID, mem.AccPrefetch, addr, now)
		case isa.ClassTx:
			// No transactional hardware: flat execution, always succeeds.
			if in.Op == isa.OpTxBegin {
				c.write(in.Rd, 0, now+1)
			}
		}

		c.stats.Retired++
		issued++
		if !redirected && !c.done {
			c.fe.Advance()
		}
		if redirected {
			break // no issue past a control transfer in the same cycle
		}
	}

	if issued == 0 && stall != StallNone {
		c.stats.StallCycles[stall]++
	}
	outstanding := c.m.Hier.OutstandingDataMisses(c.m.CoreID, now)
	c.stats.SampleMLP(outstanding)
	if issued > 0 {
		c.stats.CPI[cpu.BktRetire]++
	} else {
		c.stats.CPI[stallBucket(stall, outstanding)]++
	}
	if c.sink != nil {
		c.occ[0], c.occ[1] = len(c.loadsInFlight), len(c.storeBuf)
		c.sink.CycleState(now, "normal", issued, 0, c.occ[:])
	}
	c.stats.Cycles++
	c.cycle++

	if issued == 0 && stall != StallNone && !c.done && c.err == nil {
		// Pure stall: every path that breaks the issue loop without
		// issuing leaves the core untouched (the only side effect, a
		// first fetch-line access, is idempotent on retry), so repeating
		// this Step until the earliest pending timer is pure bookkeeping.
		c.ffStall = stall
		c.ffMLP = outstanding
		c.ffNext = c.nextTimer(now)
	} else {
		c.ffNext = 0
	}
}

// nextTimer returns the earliest cycle strictly after now at which any
// of the core's pending completions lands (0 = none pending).
func (c *Core) nextTimer(now uint64) uint64 {
	var next uint64
	bound := func(t uint64) {
		if t > now && (next == 0 || t < next) {
			next = t
		}
	}
	bound(c.fe.NextDelivery(now))
	if c.sbHorizon > now {
		for i := range c.readyAt {
			bound(c.readyAt[i])
		}
	}
	for _, t := range c.loadsInFlight {
		bound(t)
	}
	for _, t := range c.storeBuf {
		bound(t)
	}
	bound(c.m.Hier.NextDataFill(c.m.CoreID, now))
	return next
}

// NextEvent implements cpu.FastForwarder. It reports the pure-stall
// horizon recorded by the last Step; once the clock reaches it the
// answer decays to 0 and the core must be stepped naively.
func (c *Core) NextEvent() uint64 {
	if c.ffNext > c.cycle {
		return c.ffNext
	}
	return 0
}

// SkipTo implements cpu.FastForwarder: it credits cycles
// [Cycle(), target) exactly as repeating the recorded pure-stall Step
// would, then advances the clock to target.
func (c *Core) SkipTo(target uint64) {
	c.FastForward(target, 1, 0)
}

// FastForward is SkipTo for a thread interleaved in an SMT pipeline:
// within [Cycle(), target), cycles with n%stride == phase replicate the
// recorded pure-stall Step and the rest replicate Tick (the issue slot
// belongs to the sibling thread, which only lets buffers drain). stride
// <= 1 makes every cycle a step slot, i.e. plain SkipTo.
func (c *Core) FastForward(target, stride, phase uint64) {
	a, b := c.cycle, target
	if b <= a {
		return
	}
	total := b - a
	steps := total
	if stride > 1 {
		// Count of n in [a, b) with n % stride == phase.
		f := func(x uint64) uint64 { return (x + stride - 1 - phase%stride) / stride }
		steps = f(b) - f(a)
	}
	c.stats.StallCycles[c.ffStall] += steps
	c.stats.CPI[stallBucket(c.ffStall, c.ffMLP)] += steps
	c.stats.CPI[cpu.BktSMTIdle] += total - steps
	if c.ffMLP > 0 {
		// Step and Tick both sample MLP, so every cycle contributes.
		c.stats.MLPSamples += total
		c.stats.MLPSum += uint64(c.ffMLP) * total
	}
	if c.sink != nil && steps > 0 {
		// Only step-slot cycles emit cycle state (Tick is silent), so a
		// strided run cannot use the contiguous bulk path.
		c.occ[0], c.occ[1] = len(c.loadsInFlight), len(c.storeBuf)
		if stride <= 1 {
			obs.EmitCycleRun(c.sink, a, b, "normal", c.occ[:])
		} else {
			n := a + (stride+phase%stride-a%stride)%stride
			for ; n < b; n += stride {
				c.sink.CycleState(n, "normal", 0, 0, c.occ[:])
			}
		}
	}
	c.stats.Cycles += total
	c.cycle = target
}

// branch resolves a conditional branch, charging predictor-dependent
// bubbles, and reports whether fetch was redirected.
func (c *Core) branch(in isa.Inst, pc uint64, now uint64) bool {
	taken := isa.BranchTaken(in.Op, c.read(in.Rs1), c.read(in.Rs2))
	pred := c.m.Pred.PredictDir(pc)
	mis := pred != taken
	c.m.Pred.UpdateDir(pc, taken, mis)
	c.stats.Branches++
	var target uint64
	if taken {
		target = in.BranchTarget(pc)
	} else {
		target = pc + isa.InstSize
	}
	var pen uint64
	switch {
	case mis:
		pen = c.cfg.MispredictPenalty
		c.stats.BranchMispred++
	case taken:
		pen = c.cfg.TakenPenalty
	}
	if pen > 0 || taken {
		c.fe.Redirect(target, now, pen)
		return true
	}
	return false
}

// jump resolves jal/jalr and reports whether fetch was redirected
// (always true).
func (c *Core) jump(in isa.Inst, pc uint64, now uint64) bool {
	link := int64(pc + isa.InstSize)
	var target uint64
	pen := c.cfg.TakenPenalty
	if in.Op == isa.OpJal {
		target = in.BranchTarget(pc)
		if in.Rd == isa.RegRA {
			c.m.Pred.PushReturn(pc + isa.InstSize)
		}
	} else {
		target = uint64(c.read(in.Rs1) + int64(in.Imm))
		// Predict for penalty purposes: returns via RAS, other
		// indirects via BTB.
		var predicted uint64
		var have bool
		if in.Rd == isa.RegZero && in.Rs1 == isa.RegRA {
			predicted, have = c.m.Pred.PopReturn()
		} else {
			predicted, have = c.m.Pred.PredictTarget(pc)
		}
		if !have || predicted != target {
			pen = c.cfg.MispredictPenalty
			c.stats.BranchMispred++
		}
		c.m.Pred.UpdateTarget(pc, target)
		if in.Rd == isa.RegRA {
			c.m.Pred.PushReturn(pc + isa.InstSize)
		}
	}
	c.write(in.Rd, link, now+1)
	c.fe.Redirect(target, now, pen)
	return true
}
