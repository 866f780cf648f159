package rocksim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rocksim"
)

// updateFlag matches a test file's declaration of an -update flag.
var updateFlag = regexp.MustCompile(`flag\.Bool(Var)?\([^"]*"update"`)

// TestGoldenRecipeCoversEveryPin fails when `make golden` misses a pin:
// every package whose tests declare an -update flag must be tested with
// -update by the Makefile's golden recipe, which must also re-pin
// rockbench's digests (-update-golden) and rewrite results_full.txt. A
// new golden test then joins the one re-pinning step by structure.
func TestGoldenRecipeCoversEveryPin(t *testing.T) {
	recipe := goldenRecipe(t)
	var pkgs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if updateFlag.Match(src) {
			pkgs = append(pkgs, "./"+filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 3 {
		t.Fatalf("found only %d packages with an -update flag (%v); is the test running from the repository root?", len(pkgs), pkgs)
	}
	for _, pkg := range pkgs {
		if !lineWith(recipe, "$(GO) test "+pkg+" ", " -update") {
			t.Errorf("make golden does not run `$(GO) test %s ... -update`, though its tests declare -update", pkg)
		}
	}
	if !lineWith(recipe, "cd cmd/rockbench", " -update-golden") {
		t.Error("make golden does not re-pin rockbench's digests (-update-golden from cmd/rockbench)")
	}
	if !lineWith(recipe, "> results_full.txt") {
		t.Error("make golden does not rewrite results_full.txt")
	}
}

// TestSmokeKindsAreSimKinds keeps the daemon smokes' /v1/run mix over
// every core kind: the Makefile's SMOKE_KINDS must name sim.Kinds, in
// order, so a new kind joins serve-smoke and fleet-smoke.
func TestSmokeKindsAreSimKinds(t *testing.T) {
	m := regexp.MustCompile(`(?m)^SMOKE_KINDS := (.*)$`).FindStringSubmatch(readFile(t, "Makefile"))
	if m == nil {
		t.Fatal("the Makefile has no SMOKE_KINDS line")
	}
	var want []string
	for _, k := range rocksim.CoreKinds {
		want = append(want, k.String())
	}
	if got := strings.Fields(m[1]); !slices.Equal(got, want) {
		t.Errorf("the Makefile's SMOKE_KINDS is %v; sim.Kinds is %v", got, want)
	}
}

// goldenRecipe returns the command lines of the Makefile's golden
// target.
func goldenRecipe(t *testing.T) []string {
	t.Helper()
	var recipe []string
	in := false
	for _, l := range strings.Split(readFile(t, "Makefile"), "\n") {
		switch {
		case strings.HasPrefix(l, "golden:"):
			in = true
		case in && strings.HasPrefix(l, "\t"):
			recipe = append(recipe, strings.TrimSpace(l))
		case in:
			return recipe
		}
	}
	if len(recipe) == 0 {
		t.Fatal("the Makefile has no golden recipe")
	}
	return recipe
}

// lineWith reports whether one of lines contains every part.
func lineWith(lines []string, parts ...string) bool {
	for _, l := range lines {
		ok := true
		for _, p := range parts {
			ok = ok && strings.Contains(l+" ", p)
		}
		if ok {
			return true
		}
	}
	return false
}
