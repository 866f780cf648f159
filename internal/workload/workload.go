// Package workload generates the benchmark programs used in the
// evaluation. The paper evaluates SST on commercial workloads (TPC-C-,
// SPECjbb-, SPECweb- and SAP-class) and contrasts them with SPEC CPU
// components; those binaries and traces are proprietary, so each is
// replaced by a synthetic RK64 program engineered to match the defining
// memory behaviour of its class (documented per generator). Every
// workload is a real program assembled for the simulated ISA, with its
// data image built deterministically from a seeded PRNG.
package workload

import (
	"encoding/binary"
	"fmt"
	"sync"

	"rocksim/internal/asm"
)

// Class groups workloads the way the paper's evaluation does.
type Class int

// Workload classes.
const (
	ClassCommercial Class = iota // miss-dominated, low ILP, branchy
	ClassSPEC                    // compute kernels with varied behaviour
	ClassMicro                   // targeted microbenchmarks
)

func (c Class) String() string {
	switch c {
	case ClassCommercial:
		return "commercial"
	case ClassSPEC:
		return "spec"
	case ClassMicro:
		return "micro"
	}
	return "?"
}

// Spec is one ready-to-run benchmark.
type Spec struct {
	Name        string
	Class       Class
	Description string
	// Paper analogue this workload stands in for.
	Standin string
	Program *asm.Program
	// ApproxInsts is the expected dynamic instruction count, used by
	// harnesses to bound cycles.
	ApproxInsts uint64
}

// Scale selects workload sizes. Tests use ScaleTest; the benchmark
// harness uses ScaleFull.
type Scale int

// Scales.
const (
	ScaleTest Scale = iota
	ScaleFull
)

// ParseScale maps a scale's name to its Scale: "test", or "full" (also
// the default for ""). The CLIs' -scale flags and the service's request
// bodies spell scales this way.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "full":
		return ScaleFull, nil
	case "test":
		return ScaleTest, nil
	}
	return 0, fmt.Errorf("bad scale %q (want test or full)", s)
}

// prng is a deterministic xorshift64* generator for data-image layout.
type prng struct{ s uint64 }

func newPrng(seed uint64) *prng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &prng{s: seed}
}

func (p *prng) next() uint64 {
	p.s ^= p.s >> 12
	p.s ^= p.s << 25
	p.s ^= p.s >> 27
	return p.s * 0x2545f4914f6cdd1d
}

func (p *prng) intn(n int) int {
	return int(p.next() % uint64(n))
}

// permutation returns a random permutation of 0..n-1 with a single cycle
// (so pointer chases visit every node before repeating).
func (p *prng) cyclePermutation(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	next := make([]int, n)
	for i := 0; i < n-1; i++ {
		next[order[i]] = order[i+1]
	}
	next[order[n-1]] = order[0]
	return next
}

func quads(vals []uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}

// Generator builds one workload at a given scale.
type Generator func(s Scale) (*Spec, error)

// ByName maps workload names to generators.
var ByName = map[string]Generator{
	"oltp":     OLTP,
	"jbb":      JBB,
	"web":      Web,
	"erp":      ERP,
	"btree":    BTree,
	"hashjoin": HashJoin,
	"appsrv":   AppServer,
	"mcf":      MCFLike,
	"stream":   StreamLike,
	"gcc":      GCCLike,
	"quantum":  QuantumLike,
	"chase":    PointerChase,
	"randarr":  RandomArray,
	"dense":    DenseCompute,
	"brfield":  BranchField,
	"loopnest": LoopNest,
}

// Names lists all workload names in presentation order.
var Names = []string{
	"oltp", "jbb", "web", "erp", "btree", "hashjoin", "appsrv",
	"mcf", "stream", "gcc", "quantum",
	"chase", "randarr", "dense", "brfield", "loopnest",
}

// LoopHeavyNames lists the loop-heavy workloads the B1 predictor grid
// reports on: branch behavior dominated by loops whose history exceeds
// a short global-history window.
var LoopHeavyNames = []string{"brfield", "loopnest", "gcc", "dense"}

// CommercialNames lists the commercial-class workloads (the paper's
// headline suite).
var CommercialNames = []string{"oltp", "jbb", "web", "erp"}

// Build returns the named workload at scale s. A built-in workload at
// ScaleTest or ScaleFull is generated once per process, on first
// request and safely under concurrency, and every later call returns
// the same *Spec: the spec and its program are shared and immutable, so
// callers must not modify them. The memo holds at most the 16 built-in
// workloads per scale — about 6.3 MB of images at test scale and 109 MB
// at full scale — and unknown names never enter it.
func Build(name string, s Scale) (*Spec, error) {
	g, ok := ByName[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	if build, ok := built[buildKey{name, s}]; ok {
		return build()
	}
	return generate(g, s)
}

func generate(g Generator, s Scale) (*Spec, error) {
	w, err := g(s)
	if err != nil {
		return nil, err
	}
	if w.Program != nil && w.Program.Name == "" {
		w.Program.Name = w.Name
	}
	return w, nil
}

type buildKey struct {
	name  string
	scale Scale
}

// built has one memoized generator per built-in workload and scale,
// made up front so the map itself is read-only.
var built = func() map[buildKey]func() (*Spec, error) {
	m := make(map[buildKey]func() (*Spec, error), 2*len(ByName))
	for name, g := range ByName {
		for _, s := range []Scale{ScaleTest, ScaleFull} {
			m[buildKey{name, s}] = sync.OnceValues(func() (*Spec, error) { return generate(g, s) })
		}
	}
	return m
}()

// BuildAll generates every workload in Names order.
func BuildAll(s Scale) ([]*Spec, error) {
	var out []*Spec
	for _, n := range Names {
		w, err := Build(n, s)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", n, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// BuildSuite generates the named workloads.
func BuildSuite(names []string, s Scale) ([]*Spec, error) {
	var out []*Spec
	for _, n := range names {
		w, err := Build(n, s)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", n, err)
		}
		out = append(out, w)
	}
	return out, nil
}
