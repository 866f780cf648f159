package sim

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rocksim/internal/asm"
	"rocksim/internal/faults"
	"rocksim/internal/progen"
)

// The gadget corpus: Spectre-v1 bounds-check-bypass programs whose
// transient body transmits a declared secret through the cache (see the
// comments in each .rk file and docs/SECURITY.md).
var gadgetFiles = []string{"gadget_spectre_load.rk", "gadget_spectre_store.rk"}

func loadGadget(t testing.TB, name string) *asm.Program {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	prog.Name = name
	return prog
}

// leakModes names the secure-speculation configurations the corpus is
// checked under.
var leakModes = []string{"none", "delay", "nofwd", "ssb", "all"}

func leakOpts(mode string) Options {
	opts := DefaultOptions()
	opts.MaxCycles = 10_000_000
	switch mode {
	case "none":
	case "delay":
		opts.SST.SecureDelayOnMiss = true
	case "nofwd":
		opts.SST.SecureNoNAForward = true
	case "ssb":
		opts.SST.SecureEagerSSBFlush = true
	case "all":
		opts.SST.SecureDelayOnMiss = true
		opts.SST.SecureNoNAForward = true
		opts.SST.SecureEagerSSBFlush = true
	default:
		panic("unknown leak mode " + mode)
	}
	return opts
}

// gadgetLeakMatrix is the empirically pinned security matrix: for each
// gadget and secure mode, exactly which core kinds leak. Everything in
// the SST family (sst, sst-big, sst-ea, scout) leaks unmitigated.
// SecureDelayOnMiss and SecureNoNAForward close both channels;
// SecureEagerSSBFlush closes only the store channel (it never gates
// speculative loads). ooo-small leaks through the load channel in every
// mode because the secure modes are SST-family configuration — the OOO
// baseline has no mitigation, exactly like the processors Spectre was
// published against. ooo-large's wider window resolves the bound load
// before the wrong-path body issues, so this corpus does not reach its
// transmitter; inorder never speculates past the branch at all.
var gadgetLeakMatrix = map[string]map[string][]Kind{
	"gadget_spectre_load.rk": {
		"none":  {KindOOOSmall, KindSST, KindSSTBig, KindSSTEA, KindScout},
		"delay": {KindOOOSmall},
		"nofwd": {KindOOOSmall},
		"ssb":   {KindOOOSmall, KindSST, KindSSTBig, KindSSTEA, KindScout},
		"all":   {KindOOOSmall},
	},
	"gadget_spectre_store.rk": {
		"none":  {KindSST, KindSSTBig, KindSSTEA, KindScout},
		"delay": {},
		"nofwd": {},
		"ssb":   {},
		"all":   {},
	},
}

// leakVerdict runs the transient-leakage oracle for prog on a fresh
// kind-k instance.
func leakVerdict(k Kind, prog *asm.Program, opts Options) error {
	in, err := NewInstance(Shape{Kind: k}, opts)
	if err != nil {
		return err
	}
	return in.CheckTransientLeakage(context.Background(), prog, opts)
}

func kindIn(k Kind, set []Kind) bool {
	for _, s := range set {
		if s == k {
			return true
		}
	}
	return false
}

// TestGadgetsLeakUnmitigated is the oracle's teeth: on the unmitigated
// SST and scout pipelines every gadget in the corpus must be caught
// leaking. If these pass cleanly the oracle is blind and every other
// "clean" result in this file is meaningless.
func TestGadgetsLeakUnmitigated(t *testing.T) {
	for _, g := range gadgetFiles {
		prog := loadGadget(t, g)
		for _, k := range []Kind{KindSST, KindScout} {
			err := leakVerdict(k, prog, leakOpts("none"))
			if !errors.Is(err, ErrTransientLeak) {
				t.Errorf("%s on unmitigated %v: want ErrTransientLeak, got %v", g, k, err)
			}
		}
	}
}

// TestGadgetLeakMatrix pins the full gadget x mode x kind security
// matrix. A config listed in gadgetLeakMatrix must report
// ErrTransientLeak; every other config must be clean — a false positive
// here is as much a bug as a missed leak.
func TestGadgetLeakMatrix(t *testing.T) {
	for _, g := range gadgetFiles {
		prog := loadGadget(t, g)
		for _, mode := range leakModes {
			for _, k := range Kinds {
				err := leakVerdict(k, prog, leakOpts(mode))
				leaked := errors.Is(err, ErrTransientLeak)
				want := kindIn(k, gadgetLeakMatrix[g][mode])
				switch {
				case err != nil && !leaked:
					t.Errorf("%s mode=%s kind=%v: unexpected error %v", g, mode, k, err)
				case leaked && !want:
					t.Errorf("%s mode=%s kind=%v: false positive: %v", g, mode, k, err)
				case !leaked && want:
					t.Errorf("%s mode=%s kind=%v: leak not detected", g, mode, k)
				}
			}
		}
	}
}

// TestGadgetsUnderFaultPlans runs the corpus with fault injection
// active. The oracle applies the same plan to both differential runs,
// so benign plans must not flip the verdict: mitigated (and
// non-speculating) configurations stay clean — the oracle must not
// mistake fault-induced perturbation for leakage — and the unmitigated
// leak survives plans that merely harass the warmup phase.
func TestGadgetsUnderFaultPlans(t *testing.T) {
	plans := []string{
		"seed=1;ckpt-deny@0-400",
		"seed=2;rollback@300",
		"seed=3;mem-jitter@0-:8",
		"seed=4;dq-clamp@0-:4;ssb-clamp@0-:4",
		"seed=5;mispredict@0-900:3",
	}
	for _, ps := range plans {
		plan, err := faults.Parse(ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gadgetFiles {
			prog := loadGadget(t, g)
			for _, cfg := range []struct {
				k    Kind
				mode string
			}{
				{KindInOrder, "none"},
				{KindOOOLarge, "none"},
				{KindSST, "all"},
				{KindScout, "delay"},
			} {
				opts := leakOpts(cfg.mode)
				opts.Faults = plan
				if err := leakVerdict(cfg.k, prog, opts); err != nil {
					t.Errorf("%s kind=%v mode=%s plan=%q: false positive under faults: %v",
						g, cfg.k, cfg.mode, ps, err)
				}
			}
		}
	}
	// The leak itself must survive benign fault harassment: plans above
	// only perturb the warmup window, long before the trained attack
	// iteration opens its speculative window.
	prog := loadGadget(t, "gadget_spectre_load.rk")
	for _, ps := range plans[:2] {
		plan, err := faults.Parse(ps)
		if err != nil {
			t.Fatal(err)
		}
		opts := leakOpts("none")
		opts.Faults = plan
		if err := leakVerdict(KindSST, prog, opts); !errors.Is(err, ErrTransientLeak) {
			t.Errorf("unmitigated sst under plan %q: want ErrTransientLeak, got %v", ps, err)
		}
	}
}

// TestLeakOracleRequiresSecrets: a program with no .secret regions is a
// caller error, not a clean result.
func TestLeakOracleRequiresSecrets(t *testing.T) {
	prog, err := asm.Assemble("start: halt\n.entry start\n")
	if err != nil {
		t.Fatal(err)
	}
	err = leakVerdict(KindSST, prog, leakOpts("none"))
	if err == nil || errors.Is(err, ErrTransientLeak) {
		t.Fatalf("want no-secrets error, got %v", err)
	}
}

// TestLeakOracleRequiresBackedSecrets: a secret region of implicit
// zeroes cannot be perturbed, so the oracle must refuse it rather than
// silently verify nothing.
func TestLeakOracleRequiresBackedSecrets(t *testing.T) {
	b := asm.NewBuilder(asm.DefaultTextBase)
	b.SetEntry("main")
	b.Label("main")
	b.Halt()
	b.Secret(0x300000, 8) // no Data() backs this address
	prog, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	err = leakVerdict(KindSST, prog, leakOpts("none"))
	if err == nil || errors.Is(err, ErrTransientLeak) {
		t.Fatalf("want unbacked-secret error, got %v", err)
	}
}

// TestLeakOracleArchDependence: a program that architecturally computes
// on its secret is outside the oracle's threat model and must be
// reported as such, not as a transient leak.
func TestLeakOracleArchDependence(t *testing.T) {
	src := `
        .entry start
start:  li   r3, s
        ld64 r5, (r3)          ; committed register now holds the secret
        halt
        .data 0x210000
s:      .quad 0x42
        .secret s, 8
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range Kinds {
		err := leakVerdict(k, prog, leakOpts("none"))
		if !errors.Is(err, ErrArchSecretDependence) {
			t.Errorf("%v: want ErrArchSecretDependence, got %v", k, err)
		}
	}
}

// --- leak fuzz ---

// leakSecretBase places the fuzz secret outside the generated programs'
// data window [progen.DataBase, progen.DataBase+progen.DataSize): every load and
// store address is masked into the window, so no generated program can
// touch the secret architecturally or speculatively. The invariant is
// therefore total: the oracle must report such programs clean on every
// kind, in every secure mode, under arbitrary benign fault plans. A
// failure means the oracle itself manufactures secret dependence —
// digest nondeterminism, pooling residue, or salt leakage.
const leakSecretBase = 0x218000

func genLeakProgram(seed int64, nstmt int) (*asm.Program, error) {
	g := progen.New(rand.New(rand.NewSource(seed)), true)
	g.Builder().Data(leakSecretBase, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04})
	g.Builder().Secret(leakSecretBase, 8)
	return g.Program(nstmt)
}

// checkLeakSeed checks oracle cleanliness for one (program, plan) pair,
// shrinking a failure to a minimal reproducer before reporting it.
func checkLeakSeed(t *testing.T, k Kind, seed int64, nstmt int, plan *faults.Plan) {
	t.Helper()
	checkShrunk(t, "kind="+k.String(), genLeakProgram, seed, nstmt, plan, func(prog *asm.Program, p *faults.Plan) error {
		opts := fuzzFaultOpts()
		opts.Faults = p
		return leakVerdict(k, prog, opts)
	})
}

// leakFuzzPlan derives the fault plan for a leak-fuzz seed: even seeds
// run clean, odd seeds run under a random benign plan, so both the
// unfaulted and faulted digest paths stay covered.
func leakFuzzPlan(seed int64) *faults.Plan {
	if seed%2 == 0 {
		return nil
	}
	return faults.Random(seed, faultHorizon)
}

// TestLeakFuzzSmoke is the bounded fixed-seed subset wired into the
// Makefile's leak-fuzz target: a fast always-on smoke of the oracle's
// false-positive resistance across every core kind.
func TestLeakFuzzSmoke(t *testing.T) {
	for _, k := range Kinds {
		for seed := int64(1); seed <= 6; seed++ {
			checkLeakSeed(t, k, seed, 50, leakFuzzPlan(seed))
		}
	}
}

// TestLeakFuzzNoFalsePositives is the deeper sweep: many seeds per
// kind, alternating secure modes, clean and under random fault plans.
func TestLeakFuzzNoFalsePositives(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 10
	}
	for _, k := range Kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= n; seed++ {
				checkLeakSeed(t, k, seed, 60, leakFuzzPlan(seed))
			}
		})
	}
}

// TestLeakGadgetsBuiltOnce: the embedded corpus is assembled once per
// process; sequential and concurrent calls (run under -race) all return
// the same programs.
func TestLeakGadgetsBuiltOnce(t *testing.T) {
	first, err := LeakGadgets()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]*asm.Program, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = LeakGadgets()
		}(i)
	}
	wg.Wait()
	for _, gs := range got {
		if len(gs) != len(first) {
			t.Fatalf("%d gadgets, then %d", len(first), len(gs))
		}
		for j := range gs {
			if gs[j] != first[j] {
				t.Fatalf("gadget %s assembled twice", first[j].Name)
			}
		}
	}
}

// TestPerturbedCopyDigest: the oracle's perturbed copy of a program
// never carries the original's digest (which keys the run cache), and
// making it leaves the original's digest as it was.
func TestPerturbedCopyDigest(t *testing.T) {
	gadgets, err := LeakGadgets()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gadgets {
		d := g.Digest()
		p, err := perturbSecrets(g)
		if err != nil {
			t.Fatal(err)
		}
		if p.Digest() == d {
			t.Errorf("%s: the perturbed copy has the original's digest", g.Name)
		}
		if g.Digest() != d {
			t.Errorf("%s: perturbing a copy changed the original's digest", g.Name)
		}
	}
}
