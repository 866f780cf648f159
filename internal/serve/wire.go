package serve

import (
	"errors"
	"fmt"
	"time"

	"rocksim/internal/asm"
	"rocksim/internal/bpred"
	"rocksim/internal/core"
	"rocksim/internal/experiments"
	"rocksim/internal/faults"
	"rocksim/internal/inorder"
	"rocksim/internal/mem"
	"rocksim/internal/ooo"
	"rocksim/internal/sim"
)

// WireOptions is the full sim.Options on the wire: every simulation-
// affecting field, none of the observability hooks (a run is identical
// with or without them). The fleet router sends a grid cell's complete
// options to the owning shard through this shape, so per-cell overrides
// a driver applied (a DQ sweep's sizes, a security mode's switches, a
// fault plan) survive the hop exactly.
//
// Fingerprint is a consistency guard, not data: the sender records
// opts.Fingerprint() and the receiver recomputes it after decoding.
// A mismatch means a simulation-affecting field failed to round-trip —
// a protocol bug that must surface as a hard error, never as a silently
// different simulation.
type WireOptions struct {
	Hier           mem.HierConfig `json:"hier"`
	Pred           bpred.Config   `json:"pred"`
	InOrder        inorder.Config `json:"inorder"`
	OOO            ooo.Config     `json:"ooo"`
	OOOLg          ooo.Config     `json:"ooo_lg"`
	SST            core.Config    `json:"sst"`
	MaxCycles      uint64         `json:"max_cycles,omitempty"`
	TimeoutNS      int64          `json:"timeout_ns,omitempty"`
	LivelockWindow uint64         `json:"livelock_window,omitempty"`
	// Faults is the plan in its canonical grammar (faults.Plan.String);
	// empty means no plan.
	Faults        string `json:"faults,omitempty"`
	NoFastForward bool   `json:"no_fast_forward,omitempty"`
	Fingerprint   string `json:"fingerprint"`
}

// WireFromOptions encodes options for the wire, stamping the canonical
// fingerprint the receiver will verify.
func WireFromOptions(o sim.Options) WireOptions {
	return WireOptions{
		Hier:           o.Hier,
		Pred:           o.Pred,
		InOrder:        o.InOrder,
		OOO:            o.OOO,
		OOOLg:          o.OOOLg,
		SST:            o.SST,
		MaxCycles:      o.MaxCycles,
		TimeoutNS:      int64(o.Timeout),
		LivelockWindow: o.LivelockWindow,
		Faults:         o.Faults.String(),
		NoFastForward:  o.NoFastForward,
		Fingerprint:    o.Fingerprint(),
	}
}

// MaxSize bounds the dq, ckpt, ssb and memlat options, on /v1/run and
// on the wire alike. The models size queues, tables and histograms from
// these values at construction, so one unbounded request could exhaust
// the daemon's memory; negative values are refused too, since the
// models would clamp them into a simulation another key already names.
const MaxSize = 1 << 16

// checkSize refuses a sized option outside [0, MaxSize].
func checkSize(name string, v int) error {
	if v < 0 || v > MaxSize {
		return fmt.Errorf("%s %d out of range [0, %d]", name, v, MaxSize)
	}
	return nil
}

// checkSizes applies checkSize to every sized option.
func checkSizes(o sim.Options) error {
	return errors.Join(
		checkSize("dq", o.SST.DQSize),
		checkSize("ckpt", o.SST.Checkpoints),
		checkSize("ssb", o.SST.SSBSize),
		checkSize("memlat", o.Hier.DRAM.Latency))
}

// Options decodes the wire form and verifies the fingerprint guard and
// the size bounds.
func (w WireOptions) Options() (sim.Options, error) {
	o := sim.Options{
		Hier:           w.Hier,
		Pred:           w.Pred,
		InOrder:        w.InOrder,
		OOO:            w.OOO,
		OOOLg:          w.OOOLg,
		SST:            w.SST,
		MaxCycles:      w.MaxCycles,
		Timeout:        time.Duration(w.TimeoutNS),
		LivelockWindow: w.LivelockWindow,
		NoFastForward:  w.NoFastForward,
	}
	if w.Faults != "" {
		plan, err := faults.Parse(w.Faults)
		if err != nil {
			return o, fmt.Errorf("bad wire fault plan: %v", err)
		}
		o.Faults = plan
	}
	if got := o.Fingerprint(); got != w.Fingerprint {
		return o, fmt.Errorf("options fingerprint mismatch after decode: got %q want %q (a simulation-affecting field failed to round-trip)", got, w.Fingerprint)
	}
	return o, checkSizes(o)
}

// CellRequest is the body of POST /v1/cell: one grid cell computed for
// a fleet router — a single core, an SMT pair, a chip or a leak-oracle
// check. Unlike /v1/run (which applies sparse overrides to the shard's
// base options and returns the full report JSON), /v1/cell carries the
// complete options and returns only the statistics snapshot the router
// needs for table assembly.
type CellRequest struct {
	Kind string `json:"kind"`
	// Topology is the machine arrangement (sim.TopologyByName); empty
	// means one core.
	Topology string `json:"topology,omitempty"`
	// Programs names each hardware thread's program (a shared chip's one
	// image); the shard resolves every name with experiments.Program, as
	// /v1/run resolves its workload.
	Programs []string `json:"programs"`
	// Entries are a shared chip's per-core entry points.
	Entries   []uint64    `json:"entries,omitempty"`
	LeakCheck bool        `json:"leak_check,omitempty"`
	Scale     string      `json:"scale,omitempty"`
	Options   WireOptions `json:"options"`
	// Key is the sender's cell key (experiments.CellKey). The shard
	// recomputes it from the resolved cell and refuses a mismatch: a
	// name that resolved to a different program is a protocol bug, not a
	// different simulation to run silently.
	Key string `json:"key"`
}

// maxThreads bounds a wire cell's hardware threads (chip cores), for the
// same reason MaxSize bounds the sized options.
const maxThreads = 64

// NewCellRequest encodes cell c, whose programs are named built-ins
// resolvable at scale, for the wire.
func NewCellRequest(c sim.Cell, scale string, opts sim.Options) CellRequest {
	req := CellRequest{
		Kind:      c.Kind.String(),
		Entries:   c.Entries,
		LeakCheck: c.LeakCheck,
		Scale:     scale,
		Options:   WireFromOptions(opts),
		Key:       experiments.CellKey(c, opts),
	}
	if c.Topo != sim.TopoCore {
		req.Topology = c.Topo.String()
	}
	for _, p := range c.Progs {
		req.Programs = append(req.Programs, p.Name)
	}
	return req
}

// Resolve decodes the request into the cell and options to run,
// resolving program names and verifying the options fingerprint, the
// size bounds and the cell key.
func (r CellRequest) Resolve() (sim.Cell, sim.Options, error) {
	kind, err := sim.KindByName(r.Kind)
	if err != nil {
		return sim.Cell{}, sim.Options{}, err
	}
	topo, err := sim.TopologyByName(r.Topology)
	if err != nil {
		return sim.Cell{}, sim.Options{}, err
	}
	scale, err := parseScale(r.Scale)
	if err != nil {
		return sim.Cell{}, sim.Options{}, err
	}
	opts, err := r.Options.Options()
	if err != nil {
		return sim.Cell{}, sim.Options{}, err
	}
	if len(r.Programs) > maxThreads || len(r.Entries) > maxThreads {
		return sim.Cell{}, sim.Options{}, fmt.Errorf("cell wider than %d threads", maxThreads)
	}
	c := sim.Cell{Kind: kind, Topo: topo, Entries: r.Entries, LeakCheck: r.LeakCheck}
	byName := make(map[string]*asm.Program, len(r.Programs))
	for _, name := range r.Programs {
		p := byName[name]
		if p == nil {
			if p, err = experiments.Program(name, scale); err != nil {
				return sim.Cell{}, sim.Options{}, err
			}
			byName[name] = p
		}
		c.Progs = append(c.Progs, p)
	}
	if err := c.Validate(); err != nil {
		return sim.Cell{}, sim.Options{}, err
	}
	if key := experiments.CellKey(c, opts); key != r.Key {
		return sim.Cell{}, sim.Options{}, fmt.Errorf("cell key mismatch after resolving programs: got %q want %q", key, r.Key)
	}
	return c, opts, nil
}

// CellResponse is the body of a 200 from POST /v1/cell. Exactly one of
// Cell and ErrClass is set: a deterministic simulation failure (a
// watchdog trip, a model panic) is a RESULT that must render as the
// same ERR cell on every node, so it rides in the body — only
// transport- and admission-level problems use HTTP status codes, which
// is what lets the router distinguish "this cell deterministically
// fails" (keep the error, byte-identical output) from "this shard is
// unavailable" (eject and retry on a survivor).
type CellResponse struct {
	Cell *sim.CellStats `json:"cell,omitempty"`
	// ErrClass classifies a failed cell (experiments.ErrClass taxonomy);
	// ErrMsg preserves the exact error text for the report's Errs lines.
	ErrClass string `json:"err_class,omitempty"`
	ErrMsg   string `json:"err_msg,omitempty"`
}
