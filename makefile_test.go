package rocksim_test

import (
	"regexp"
	"strings"
	"testing"
)

// goTestLine matches a Makefile recipe line that runs go test, with the
// directory an optional leading `cd DIR &&` moves to.
var goTestLine = regexp.MustCompile(`(?:cd (\S+) && )?\$\(GO\) test (.*)`)

// TestMakefileRunPatternsNameTests keeps the Makefile's test selections
// from going silently empty: every "|" alternative of every -run or
// -fuzz pattern must match a test or fuzz function of the packages its
// line tests. The empty selection "^$" is exempt. Without this, renaming
// a test quietly drops it from fault-fuzz, leak-fuzz, fuzz-short,
// determinism or golden, which then pass without running it.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	checked := 0
	for _, l := range strings.Split(strings.ReplaceAll(readFile(t, "Makefile"), "$$", "$"), "\n") {
		m := goTestLine.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		args := strings.Fields(m[2])
		var pkgs, pats []string
		for i, a := range args {
			switch {
			case a == "." || strings.HasPrefix(a, "./"):
				if m[1] != "" {
					a = m[1] + strings.TrimPrefix(a, ".")
				}
				pkgs = append(pkgs, a)
			case (a == "-run" || a == "-fuzz") && i+1 < len(args):
				pats = append(pats, strings.Trim(args[i+1], "'\""))
			}
		}
		for _, pat := range pats {
			for _, alt := range strings.Split(pat, "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile: %q: bad pattern %q: %v", l, alt, err)
					continue
				}
				checked++
				if !matchesTest(t, re, pkgs) {
					t.Errorf("Makefile: %q: %q names no test or fuzz function in %v", strings.TrimSpace(l), alt, pkgs)
				}
			}
		}
	}
	if checked < 5 {
		t.Fatalf("checked only %d patterns; did the Makefile's go test lines change form?", checked)
	}
}

// matchesTest reports whether re matches a test or fuzz function of one
// of pkgs.
func matchesTest(t *testing.T, re *regexp.Regexp, pkgs []string) bool {
	for _, p := range pkgs {
		for name := range testFuncs(t, p) {
			if re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
