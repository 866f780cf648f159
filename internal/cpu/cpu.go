// Package cpu provides the scaffolding shared by every core model: the
// Core interface the simulator drives, the per-core machine context
// (functional memory, timing hierarchy, branch predictor), the frontend
// (instruction fetch with I-cache timing and redirect bubbles), and the
// common statistics block. Keeping this layer identical across in-order,
// out-of-order and SST cores is what makes their comparison measure only
// the pipeline technique.
package cpu

import (
	"context"
	"errors"
	"fmt"

	"rocksim/internal/bpred"
	"rocksim/internal/mem"
	"rocksim/internal/obs"
)

// Core is one simulated processor core advanced cycle by cycle.
type Core interface {
	// Step advances the core by one clock cycle.
	Step()
	// Cycle returns the current cycle count.
	Cycle() uint64
	// Done reports whether the program has halted (architecturally).
	Done() bool
	// Retired returns the number of architecturally retired
	// (committed) instructions.
	Retired() uint64
	// Base returns the common statistics block.
	Base() *BaseStats
	// Err returns a fatal simulation error (illegal instruction), if any.
	Err() error
}

// FastForwarder is the optional Core extension behind event-driven
// stall skipping. A core that can prove it is in a pure stall — a state
// in which stepping would change nothing except time-indexed stall
// accounting — reports the earliest future cycle at which its state can
// actually change, and the run loop advances the clock there in one
// jump.
//
// The contract is bit-identity: after SkipTo(target), every counter,
// histogram, sink emission and piece of architectural state must equal
// what stepping cycle by cycle from Cycle() to target would have
// produced. A core unsure of that for its current state must return 0
// from NextEvent and be stepped naively; skipping is an optimization,
// never a semantic.
type FastForwarder interface {
	Core
	// NextEvent returns the earliest cycle strictly greater than Cycle()
	// at which the core's state can change (an MSHR fill, a long-op
	// completion, a fetch-line delivery, a fault-plan boundary), or 0
	// when the core cannot prove its current state is a pure stall.
	NextEvent() uint64
	// SkipTo advances the clock to target, bulk-crediting the skipped
	// cycles exactly as naive stepping would. Valid only when NextEvent
	// returned t with Cycle() < target <= t.
	SkipTo(target uint64)
}

// Resetter is implemented by core models that can return to their
// freshly constructed state, executing from entry, without reallocating
// (see sim.Instance). The caller resets the machine underneath first.
type Resetter interface {
	Reset(entry uint64)
}

// BaseStats is the statistics block common to all core models.
type BaseStats struct {
	Cycles  uint64
	Retired uint64

	Loads       uint64
	Stores      uint64
	LoadL1Hits  uint64
	LoadL2Hits  uint64
	LoadMemHits uint64

	Branches      uint64
	BranchMispred uint64

	// MLP accounting: each cycle with >=1 outstanding data miss
	// contributes one sample whose value is the number outstanding.
	MLPSamples uint64
	MLPSum     uint64

	// CPI is the cycle-accounting stack: every simulated cycle lands in
	// exactly one bucket (see cpi.go for the taxonomy and invariant).
	CPI [NumBuckets]uint64
}

// Add sums o's counters and cycle-accounting buckets into s, leaving
// s.Cycles alone: a multi-threaded machine (an SMT pair, a chip) keeps
// its own clock and aggregates its threads' statistics with Add.
func (s *BaseStats) Add(o *BaseStats) {
	s.Retired += o.Retired
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.LoadL1Hits += o.LoadL1Hits
	s.LoadL2Hits += o.LoadL2Hits
	s.LoadMemHits += o.LoadMemHits
	s.Branches += o.Branches
	s.BranchMispred += o.BranchMispred
	s.MLPSamples += o.MLPSamples
	s.MLPSum += o.MLPSum
	for i := range s.CPI {
		s.CPI[i] += o.CPI[i]
	}
}

// IPC returns retired instructions per cycle.
func (s *BaseStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// MLP returns the average number of outstanding data misses over cycles
// that had at least one outstanding.
func (s *BaseStats) MLP() float64 {
	if s.MLPSamples == 0 {
		return 0
	}
	return float64(s.MLPSum) / float64(s.MLPSamples)
}

// CountLoadLevel attributes a load to the hierarchy level that served it.
func (s *BaseStats) CountLoadLevel(lvl mem.Level) {
	switch lvl {
	case mem.LvlL1:
		s.LoadL1Hits++
	case mem.LvlL2:
		s.LoadL2Hits++
	default:
		s.LoadMemHits++
	}
}

// SampleMLP records one cycle's outstanding-miss count.
func (s *BaseStats) SampleMLP(outstanding int) {
	if outstanding > 0 {
		s.MLPSamples++
		s.MLPSum += uint64(outstanding)
	}
}

// PublishObs publishes the common per-core counter set into the
// registry. It also creates the uniform checkpoint/DQ metrics at zero so
// that every core model — speculative or not — exports the same core
// set; checkpointed cores overwrite them with real figures.
func (s *BaseStats) PublishObs(r *obs.Registry) {
	r.Counter("core/cycles").Set(s.Cycles)
	r.Counter("core/insts").Set(s.Retired)
	r.Counter("core/loads").Set(s.Loads)
	r.Counter("core/stores").Set(s.Stores)
	r.Counter("core/load_l1_hits").Set(s.LoadL1Hits)
	r.Counter("core/load_l2_hits").Set(s.LoadL2Hits)
	r.Counter("core/load_mem_hits").Set(s.LoadMemHits)
	r.Counter("core/branches").Set(s.Branches)
	r.Counter("core/branch_mispredicts").Set(s.BranchMispred)
	r.Counter("core/mlp_samples").Set(s.MLPSamples)
	r.Counter("core/mlp_sum").Set(s.MLPSum)
	s.publishCPI(r)
	// Uniform cross-model placeholders (see doc comment).
	r.Counter("core/checkpoints_taken")
	r.Counter("core/checkpoints_committed")
	r.Counter("core/checkpoints_aborted")
	r.Gauge("core/dq_highwater")
}

// Machine is the per-core execution context handed to a core model.
type Machine struct {
	Mem    *mem.Sparse    // functional (architectural) memory
	Hier   *mem.Hierarchy // timing hierarchy
	CoreID int            // port index into the hierarchy
	Pred   *bpred.Predictor

	// Coherent controls whether committed stores broadcast
	// invalidations to other cores' L1Ds (enabled by the CMP harness).
	Coherent bool
}

// NewMachine builds a single-core machine over a fresh hierarchy.
func NewMachine(m *mem.Sparse, hcfg mem.HierConfig, pcfg bpred.Config) (*Machine, error) {
	h, err := mem.NewHierarchy(hcfg, 1)
	if err != nil {
		return nil, err
	}
	return &Machine{Mem: m, Hier: h, CoreID: 0, Pred: bpred.New(pcfg)}, nil
}

// Reset returns the machine's shared structures — functional memory,
// timing hierarchy and branch predictor — to their freshly constructed
// state in place, as the first step of reusing a pooled simulator (see
// sim.Instance). Core models reset themselves on top via their own
// Reset methods.
func (m *Machine) Reset() {
	m.Mem.Reset()
	m.Hier.Reset()
	if m.Pred != nil {
		m.Pred.Reset()
	}
}

// StoreVisible publishes a committed store for coherence purposes.
func (m *Machine) StoreVisible(addr uint64) {
	if m.Coherent {
		m.Hier.StoreVisible(m.CoreID, addr)
	}
}

// ErrCycleLimit is returned by Run when the cycle budget is exhausted.
var ErrCycleLimit = errors.New("cpu: cycle limit exceeded")

// ErrLivelock is returned by RunCtx when the core makes no architectural
// progress for a whole livelock window: the simulated machine is
// spinning (a model bug, a pathological fault plan) and would otherwise
// burn the full cycle budget before failing.
var ErrLivelock = errors.New("cpu: no forward progress (livelock)")

// ErrDeadline is returned by RunCtx when the run's context expires (a
// wall-clock watchdog) before the program halts.
var ErrDeadline = errors.New("cpu: run deadline exceeded")

// RunConfig bounds a watchdogged run (see RunCtx).
type RunConfig struct {
	// MaxCycles bounds the run in simulated cycles (0 = unbounded).
	MaxCycles uint64
	// LivelockWindow errors the run when the core shows no activity —
	// no retire, load, store or branch execution — for this many
	// consecutive cycles (0 = detector off). Retirement alone is too
	// strict a progress signal: a checkpointed core can legitimately run
	// millions of cycles of speculative work before its first bulk
	// commit, but during that time it is executing memory operations,
	// which the activity counter sees. A wedged core advances nothing.
	LivelockWindow uint64
	// CheckEvery is the cycle granularity of the context and livelock
	// checks (0 = a sensible default). Checks are off the per-cycle path;
	// detection latency is at most one check interval. Fast-forward jumps
	// are clamped to check boundaries, so a multi-million-cycle jump
	// cannot delay a deadline or livelock check: the watchdogs run at
	// least once per check interval in both simulated cycles and loop
	// iterations.
	CheckEvery uint64
	// DisableFastForward steps the core naively even when it implements
	// FastForwarder. The differential fuzz uses it to prove skipped and
	// naive runs are bit-identical.
	DisableFastForward bool
}

// Run steps the core until it halts or maxCycles elapse.
func Run(c Core, maxCycles uint64) error {
	return RunCtx(context.Background(), c, RunConfig{MaxCycles: maxCycles})
}

// RunCtx steps the core until it halts, with three watchdogs: the
// simulated-cycle budget, the context's wall-clock deadline (or
// cancellation), and a no-forward-progress livelock detector. Every
// returned error reports the cycle and retire counts at failure so a
// hung run is attributable.
func RunCtx(ctx context.Context, c Core, cfg RunConfig) error {
	check := cfg.CheckEvery
	if check == 0 {
		check = 4096
	}
	if cfg.LivelockWindow > 0 && check > cfg.LivelockWindow/2 {
		// Keep detection latency within half a window.
		check = cfg.LivelockWindow/2 + 1
	}
	ff, _ := c.(FastForwarder)
	if cfg.DisableFastForward {
		ff = nil
	}
	lastWork := coreWork(c)
	lastProgress := c.Cycle()
	next := c.Cycle() + check
	for !c.Done() {
		cyc := c.Cycle()
		if cfg.MaxCycles > 0 && cyc >= cfg.MaxCycles {
			return fmt.Errorf("%w (%d cycles, %d retired)", ErrCycleLimit, cyc, c.Retired())
		}
		if cyc >= next {
			next = cyc + check
			if ctx != nil && ctx.Err() != nil {
				return fmt.Errorf("%w at cycle %d (%d retired): %v", ErrDeadline, cyc, c.Retired(), ctx.Err())
			}
			if w := coreWork(c); w != lastWork {
				lastWork = w
				lastProgress = cyc
			} else if cfg.LivelockWindow > 0 && cyc-lastProgress >= cfg.LivelockWindow {
				return fmt.Errorf("%w: no activity in %d cycles (cycle %d, %d retired)",
					ErrLivelock, cyc-lastProgress, cyc, c.Retired())
			}
		}
		if ff != nil {
			if t := ff.NextEvent(); t > cyc {
				// Pure stall until t: jump there instead of stepping, but
				// never past a watchdog boundary or the cycle budget, so
				// every check (and every limit error) fires at the exact
				// cycle naive stepping would reach it.
				target := t
				if target > next {
					target = next
				}
				if cfg.MaxCycles > 0 && target > cfg.MaxCycles {
					target = cfg.MaxCycles
				}
				if target > cyc {
					ff.SkipTo(target)
					continue
				}
			}
		}
		c.Step()
		if err := c.Err(); err != nil {
			return err
		}
	}
	return nil
}

// coreWork is the livelock detector's monotonic activity counter:
// anything the core executes — architecturally or speculatively — counts
// as forward motion. A genuinely wedged core (a lost memory response, a
// stalled pipeline that will never refill) advances none of these.
func coreWork(c Core) uint64 {
	s := c.Base()
	return s.Retired + s.Loads + s.Stores + s.Branches
}
