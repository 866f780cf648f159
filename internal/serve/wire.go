package serve

import (
	"encoding"
	"errors"
	"fmt"
	"reflect"
	"strings"

	"rocksim/internal/asm"
	"rocksim/internal/experiments"
	"rocksim/internal/mem"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

// WireOptions is the full sim.Options on the wire, in the options' own
// JSON form: every field but the observability hooks (a run is
// identical with or without them), flat beside the guard. The fleet
// router sends a grid cell's complete options to the owning shard
// through this shape, so per-cell overrides a driver applied (a DQ
// sweep's sizes, a security mode's switches, a fault plan) survive the
// hop exactly.
//
// Fingerprint is a consistency guard, not data: the sender records
// opts.Fingerprint() and the receiver recomputes it after decoding.
// A mismatch means a simulation-affecting field failed to round-trip —
// a protocol bug that must surface as a hard error, never as a silently
// different simulation.
type WireOptions struct {
	sim.Options
	Fingerprint string `json:"fingerprint"`
}

// WireFromOptions encodes options for the wire, stamping the canonical
// fingerprint the receiver will verify.
func WireFromOptions(o sim.Options) WireOptions {
	return WireOptions{Options: o, Fingerprint: o.Fingerprint()}
}

// Size bounds of wire options. The models size queues, tables, caches
// and histograms from the options at construction, so one unbounded
// request could exhaust the daemon's memory; negative values are
// refused too, since the models would clamp them into a simulation
// another key already names.
const (
	// MaxSize bounds every int option: counts (entries, ways, MSHRs,
	// ROB/IQ/LSQ, banks, RAS, stride, DQ, checkpoints, SSB) and
	// latencies. /v1/run applies it to dq, ckpt, ssb and memlat.
	MaxSize = 1 << 16
	// maxLog2 bounds the log2 widths, the int options named *Bits.
	maxLog2 = 24
	// maxCacheBytes bounds a cache's SizeBytes, and maxCacheLines its
	// line count (SizeBytes/LineBytes): 64 MiB of 64-byte lines.
	maxCacheBytes = 64 << 20
	maxCacheLines = maxCacheBytes / 64
	// maxCellLines bounds the cache lines a whole cell builds, summed
	// over every core's L1I and L1D and the shared L2. The per-cache
	// bound multiplies with the core count (64 cores of two 64 MiB L1s
	// would be about 7 GB of tag store); four caches' worth still admits
	// one core with every cache at its own maximum.
	maxCellLines = 4 * maxCacheLines
)

// checkSize refuses a sized option outside [0, max].
func checkSize(name string, v, max int) error {
	if v < 0 || v > max {
		return fmt.Errorf("%s %d out of range [0, %d]", name, v, max)
	}
	return nil
}

var textMarshaler = reflect.TypeFor[encoding.TextMarshaler]()

// checkSizes bounds every int field of the options, at any depth, so a
// field added to a configuration is bounded without an edit here:
// SizeBytes by maxCacheBytes, *Bits by maxLog2, any other by MaxSize.
// Enums (text-marshaled ints) are checked by decoding instead. A cache
// also may not hold more than maxCacheLines lines.
func checkSizes(o sim.Options) error {
	var errs []error
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if c, ok := v.Interface().(mem.CacheConfig); ok && c.LineBytes > 0 && c.SizeBytes/c.LineBytes > maxCacheLines {
			errs = append(errs, fmt.Errorf("%s holds %d lines, more than %d", strings.TrimSuffix(path, "."), c.SizeBytes/c.LineBytes, maxCacheLines))
		}
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			switch {
			case fv.Kind() == reflect.Struct:
				walk(path+f.Name+".", fv)
			case fv.Kind() == reflect.Int && !f.Type.Implements(textMarshaler):
				max := MaxSize
				if f.Name == "SizeBytes" {
					max = maxCacheBytes
				} else if strings.HasSuffix(f.Name, "Bits") {
					max = maxLog2
				}
				errs = append(errs, checkSize(path+f.Name, int(fv.Int()), max))
			}
		}
	}
	walk("", reflect.ValueOf(o))
	return errors.Join(errs...)
}

// Verify checks the decoded options against the sender's fingerprint
// and the size bounds, and returns them.
func (w WireOptions) Verify() (sim.Options, error) {
	if got := w.Options.Fingerprint(); got != w.Fingerprint {
		return w.Options, fmt.Errorf("options fingerprint mismatch after decode: got %q want %q (a simulation-affecting field failed to round-trip)", got, w.Fingerprint)
	}
	return w.Options, checkSizes(w.Options)
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
	scale, err := workload.ParseScale(r.Scale)
	if err != nil {
		return sim.Cell{}, sim.Options{}, err
	}
	opts, err := r.Options.Verify()
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
	if n := cellLines(c, opts.Hier); n > maxCellLines {
		return sim.Cell{}, sim.Options{}, fmt.Errorf("cell builds %d cache lines over its cores and L2, more than %d", n, maxCellLines)
	}
	if key := experiments.CellKey(c, opts); key != r.Key {
		return sim.Cell{}, sim.Options{}, fmt.Errorf("cell key mismatch after resolving programs: got %q want %q", key, r.Key)
	}
	return c, opts, nil
}

// cellLines counts the cache lines cell c builds under h: each core's
// L1I and L1D plus the one shared L2. A single core and an SMT pair
// build one core's caches, a chip one set per core.
func cellLines(c sim.Cell, h mem.HierConfig) int {
	cores := 1
	if c.Topo == sim.TopoCMP || c.Topo == sim.TopoSharedCMP {
		cores = c.Shape().Width
	}
	lines := func(cc mem.CacheConfig) int {
		if cc.LineBytes <= 0 {
			return 0 // refused by the hierarchy's own validation
		}
		return cc.SizeBytes / cc.LineBytes
	}
	return cores*(lines(h.L1I)+lines(h.L1D)) + lines(h.L2)
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
