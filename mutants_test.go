package rocksim_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var runMutants = flag.Bool("mutants", false,
	"apply every mutant in a temporary copy of the module and require its test to fail (make mutants)")

// A mutant is a deliberate bug that a named test must catch: replacing
// Anchor, which occurs exactly once in File, by Repl must make go test
// of Pkg print "--- FAIL: Test". Each entry keeps a "this test fails
// without the code it guards" check that would otherwise be done once
// by hand and lost; a refactor that moves the anchor must update its
// mutant knowingly.
type mutant struct {
	File, Anchor, Repl string
	Pkg, Test          string
}

var mutants = []mutant{
	// The SST core's one credit rule adds k repetitions of a recorded
	// interval's counter moves, for a stall skip and a period jump alike.
	{"internal/core/skip.go",
		"cr.stats.add(unsafe.Pointer(&c.stats), k)",
		"cr.stats.add(unsafe.Pointer(&c.stats), k-1)",
		"./internal/sim", "TestFastForwardDifferentialFuzz"},
	// The clock is on the declared list of words a pure stall may move;
	// without it no stall cycle passes the purity check.
	{"internal/core/skip.go",
		`"Cycles", "CPI",`,
		`"CPI",`,
		"./internal/sim", "TestFastForwardEngages"},
	// A pooled core forgets the checkpoint-lifetime histogram.
	{"internal/core/reset.go",
		"\tst.CkptLife.Reset()\n",
		"",
		"./internal/sim", "TestPooledDifferentialFuzz"},
	// A load overlays the speculative store buffer byte by byte.
	{"internal/core/checkpoint.go",
		"byte(uint64(s.val) >> (8 * b))",
		"byte(uint64(s.val) >> (8 * (b + 1)))",
		"./internal/sim", "TestFuzzEquivalenceQuick"},
	// A later episode re-arms a cached period only with equal register
	// deltas.
	{"internal/core/period.go",
		"if a1.regs[r]-a0.regs[r] != b1.regs[r]-b0.regs[r] ||",
		"if false ||",
		"./internal/sim", "TestScoutJumpRefusesOtherEpisodes"},
	// The leak oracle's second run must see different secret bytes.
	{"internal/sim/leakcheck.go",
		"const secretPerturbMask = 0x5A",
		"const secretPerturbMask = 0x00",
		"./internal/sim", "TestGadgetsLeakUnmitigated"},
	// Reset forgets the scout period a run verified.
	{"internal/core/reset.go",
		"\t\tstats:     st,\n",
		"\t\tstats:     st,\n\t\tpj:        c.pj,\n",
		"./internal/core", "TestResetForgetsCachedPeriod"},
}

// TestMutantAnchorsOccurOnce is the tier-1 half of the mutation checks:
// it compiles nothing, and only requires every mutant's anchor to occur
// exactly once in its file and its test to exist in its package.
func TestMutantAnchorsOccurOnce(t *testing.T) {
	for _, m := range mutants {
		if n := strings.Count(readFile(t, m.File), m.Anchor); n != 1 {
			t.Errorf("%s: the anchor %q of %s's mutant occurs %d times, want 1", m.File, m.Anchor, m.Test, n)
		}
		if !testFuncs(t, m.Pkg)[m.Test] {
			t.Errorf("%s: the mutant of %s names test %s, which the package does not have", m.Pkg, m.File, m.Test)
		}
	}
}

// TestMutantsKilled applies each mutant, one at a time, in a temporary
// copy of the module and runs its test alone. A mutant is killed only
// when the test reports "--- FAIL"; a build failure is not a kill. Run
// it with `make mutants`.
func TestMutantsKilled(t *testing.T) {
	if !*runMutants {
		t.Skip("run with -mutants (make mutants)")
	}
	dir := t.TempDir()
	if err := copyModule(".", dir); err != nil {
		t.Fatal(err)
	}
	for _, m := range mutants {
		path := filepath.Join(dir, m.File)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(orig), m.Anchor, m.Repl, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		cmd := exec.Command("go", "test", m.Pkg, "-run", "^"+m.Test+"$", "-count=1")
		cmd.Dir = dir
		out, _ := cmd.CombinedOutput()
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(out), "--- FAIL: "+m.Test+" (") {
			t.Logf("%s: mutant of %q killed by %s (%.1fs)", m.File, m.Anchor, m.Test, time.Since(start).Seconds())
			continue
		}
		t.Errorf("%s: mutant %q -> %q survived %s:\n%s", m.File, m.Anchor, m.Repl, m.Test, out)
	}
}

// copyModule copies the module's source tree at src into dst, leaving
// out directories whose names start with ".".
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != src && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, path), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, path), b, 0o644)
	})
}

// testFuncs returns the names of the top-level test and fuzz functions
// declared in package directory pkg ("./internal/sim"); "./..." means
// every package of the module.
func testFuncs(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	root, recurse := strings.CutSuffix(pkg, "/...")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (!recurse || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
