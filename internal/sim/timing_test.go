package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rocksim/internal/cpu"
	"rocksim/internal/ooo"
	"rocksim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the timing golden files in testdata")

// timingLine renders the timing a run produced: cycles, retired
// instructions, the non-zero CPI-stack buckets and, for the out-of-order
// kinds, the pipeline event counters. Architectural state is pinned by
// the emulator differentials; this pins the model's timing, so a
// scheduler change that keeps results right but moves a cycle shows.
func timingLine(name, core string, out Outcome) string {
	b := &out.Base
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s cycles=%d retired=%d cpi{", name, core, b.Cycles, b.Retired)
	sep := ""
	for bk := cpu.Bucket(0); bk < cpu.NumBuckets; bk++ {
		if v := b.CPI[bk]; v != 0 {
			fmt.Fprintf(&sb, "%s%s=%d", sep, bk, v)
			sep = " "
		}
	}
	sb.WriteString("}")
	if s := out.OOO; s != nil {
		fmt.Fprintf(&sb, " squash=%d memorder=%d wrongpath=%d robfull=%d fetchstall=%d emptyissue=%d",
			s.Squashes, s.MemOrderViolations, s.WrongPathInsts,
			s.ROBFullCycles, s.FetchStallCycles, s.EmptyIssueCycles)
	}
	return sb.String()
}

// oooVariants are out-of-order configurations beyond the two built-in
// kinds. Each puts the issue window in a shape those two never reach.
var oooVariants = []struct {
	name string
	cfg  func() ooo.Config
}{
	// A window smaller than the ROB's occupancy.
	{"ooo-iq1", func() ooo.Config {
		c := ooo.SmallConfig()
		c.IQSize, c.IssueWidth = 1, 1
		return c
	}},
	// A ROB whose ring is not a power of two.
	{"ooo-rob24", func() ooo.Config {
		c := ooo.SmallConfig()
		c.ROBSize, c.IQSize = 24, 24
		return c
	}},
	// Conservative disambiguation: a load with ready operands is refused
	// while an older store's address is unknown.
	{"ooo-nospec", func() ooo.Config {
		c := ooo.LargeConfig()
		c.SpecLoads = false
		return c
	}},
	// A wide core whose window spans several words of any per-slot set.
	{"ooo-rob256", func() ooo.Config {
		c := ooo.LargeConfig()
		c.ROBSize, c.IQSize = 256, 192
		c.FetchWidth, c.IssueWidth, c.CommitWidth = 8, 8, 8
		return c
	}},
}

// TestTimingGolden pins the simulated timing of every built-in workload
// at test scale: on every core kind against testdata/timing.golden, and
// on each of oooVariants against testdata/timing_variants.golden.
// Regenerate with `go test ./internal/sim -run TestTimingGolden -update`
// only after a deliberate change to a timing model.
func TestTimingGolden(t *testing.T) {
	names := workload.Names
	lines := make([]string, len(names)*len(Kinds))
	variants := make([]string, len(names)*len(oooVariants))
	run := func(t *testing.T, k Kind, opts Options, label string, out []string, col, cols int) {
		t.Parallel()
		for wi, name := range names {
			w, err := workload.Build(name, workload.ScaleTest)
			if err != nil {
				t.Fatal(err)
			}
			o, err := Run(k, w.Program, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[wi*cols+col] = timingLine(name, label, o)
		}
	}
	t.Run("runs", func(t *testing.T) {
		for ki, k := range Kinds {
			t.Run(k.String(), func(t *testing.T) {
				run(t, k, DefaultOptions(), k.String(), lines, ki, len(Kinds))
			})
		}
		for vi, v := range oooVariants {
			t.Run(v.name, func(t *testing.T) {
				opts := DefaultOptions()
				opts.OOOLg = v.cfg()
				run(t, KindOOOLarge, opts, v.name, variants, vi, len(oooVariants))
			})
		}
	})
	if t.Failed() {
		return
	}
	checkTimingGolden(t, "timing.golden", lines)
	checkTimingGolden(t, "timing_variants.golden", variants)
}

// checkTimingGolden compares lines with testdata/file (rewriting it
// first under -update) and reports each drifted line.
func checkTimingGolden(t *testing.T, file string, lines []string) {
	t.Helper()
	got := []byte(strings.Join(lines, "\n") + "\n")
	golden := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestTimingGolden -update` to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, l := range lines {
		if i >= len(wantLines) {
			t.Errorf("%s: extra line: %s", file, l)
		} else if l != wantLines[i] {
			t.Errorf("%s: timing drifted:\n got %s\nwant %s", file, l, wantLines[i])
		}
	}
	if len(wantLines) > len(lines) {
		t.Errorf("%s: golden has %d lines, run produced %d", file, len(wantLines), len(lines))
	}
}
