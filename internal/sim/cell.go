package sim

import (
	"fmt"
	"strings"

	"rocksim/internal/asm"
)

// Topology is how a cell's hardware threads are arranged.
type Topology int

// Topologies. ROCK is a CMP whose cores run either one SST thread or two
// SMT threads; every comparison in the evaluation is one of these.
const (
	TopoCore      Topology = iota // one core running one program
	TopoSMT                       // one in-order core, two programs as SMT-2 strands sharing its L1s
	TopoCMP                       // a multiprogrammed chip: core i runs program i in private memory
	TopoSharedCMP                 // a shared-memory chip: every core runs one image from its own entry point
)

var topoNames = [...]string{"core", "smt", "cmp", "shared-cmp"}

func (t Topology) String() string {
	if t >= 0 && int(t) < len(topoNames) {
		return topoNames[t]
	}
	return "?"
}

// TopologyByName parses a topology name ("core", "smt", "cmp",
// "shared-cmp"); "" means a single core.
func TopologyByName(s string) (Topology, error) {
	if s == "" {
		return TopoCore, nil
	}
	for t, n := range topoNames {
		if n == s {
			return Topology(t), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown topology %q", s)
}

// Shape is a machine shape: the core kind, the topology and the number
// of hardware threads (2 for an SMT pair, the core count of a chip; a
// single core ignores it). Together with Options.ShapeFingerprint —
// which carries the predictor sharing mode — it decides what
// NewInstance builds, so it keys the instance pool (see PoolKey).
type Shape struct {
	Kind  Kind
	Topo  Topology
	Width int
}

func (s Shape) String() string {
	if s.Topo == TopoCore {
		return s.Kind.String()
	}
	return fmt.Sprintf("%v %v-%d", s.Kind, s.Topo, s.Width)
}

// Cell is one simulation: a machine shape plus the programs its threads
// run. It is the unit of the run cache, the instance pool and fleet
// placement, whatever the topology.
type Cell struct {
	Kind Kind
	Topo Topology
	// Progs holds one program per hardware thread; a shared-memory chip
	// loads its single image Progs[0] once.
	Progs []*asm.Program
	// Entries are the per-core entry points of a shared-memory chip (its
	// width); unused by the other topologies, whose threads start at
	// their programs' entries.
	Entries []uint64
	// LeakCheck runs the transient-leakage oracle on a single-core cell
	// (Instance.CheckTransientLeakage) instead of a plain run: the
	// verdict is the cell's error, nil when the secrets stay invisible.
	LeakCheck bool
}

// CoreCell is the single-core cell running prog on a kind-k core.
func CoreCell(k Kind, prog *asm.Program) Cell {
	return Cell{Kind: k, Progs: []*asm.Program{prog}}
}

// Shape returns the machine shape the cell runs on.
func (c Cell) Shape() Shape {
	w := len(c.Progs)
	if c.Topo == TopoSharedCMP {
		w = len(c.Entries)
	}
	return Shape{Kind: c.Kind, Topo: c.Topo, Width: w}
}

// Desc names the cell's programs: the program of a single core or a
// shared chip, the "+"-joined programs of the other topologies.
func (c Cell) Desc() string {
	if len(c.Progs) == 1 {
		return c.Progs[0].Desc()
	}
	names := make([]string, len(c.Progs))
	for i, p := range c.Progs {
		names[i] = p.Desc()
	}
	return strings.Join(names, "+")
}

// Validate checks that the cell's programs fit its topology.
func (c Cell) Validate() error {
	want := 1
	switch c.Topo {
	case TopoCore, TopoSharedCMP:
	case TopoSMT:
		want = 2
	case TopoCMP:
		want = len(c.Progs)
	default:
		return fmt.Errorf("sim: bad topology %d", c.Topo)
	}
	switch {
	case len(c.Progs) != want || want == 0:
		return fmt.Errorf("sim: a %v cell needs %d programs, has %d", c.Topo, want, len(c.Progs))
	case c.Topo == TopoSharedCMP && len(c.Entries) == 0:
		return fmt.Errorf("sim: a shared-cmp cell needs entry points")
	case c.LeakCheck && c.Topo != TopoCore:
		return fmt.Errorf("sim: the leak oracle runs single-core cells only")
	}
	return nil
}

// entries fills buf with each thread's entry point.
func (c Cell) entries(buf []uint64) []uint64 {
	if c.Topo == TopoSharedCMP {
		return append(buf[:0], c.Entries...)
	}
	buf = buf[:0]
	for _, p := range c.Progs {
		buf = append(buf, p.Entry)
	}
	return buf
}
