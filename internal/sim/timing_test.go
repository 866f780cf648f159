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
	"rocksim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/timing.golden")

// timingLine renders the timing a run produced: cycles, retired
// instructions, the non-zero CPI-stack buckets and, for the out-of-order
// kinds, the pipeline event counters. Architectural state is pinned by
// the emulator differentials; this pins the model's timing, so a
// scheduler change that keeps results right but moves a cycle shows.
func timingLine(name string, k Kind, out Outcome) string {
	b := &out.Base
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s cycles=%d retired=%d cpi{", name, k, b.Cycles, b.Retired)
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

// TestTimingGolden pins the simulated timing of every built-in workload
// on every core kind at test scale against testdata/timing.golden.
// Regenerate with `go test ./internal/sim -run TestTimingGolden -update`
// only after a deliberate change to a timing model.
func TestTimingGolden(t *testing.T) {
	names := workload.Names
	lines := make([]string, len(names)*len(Kinds))
	t.Run("runs", func(t *testing.T) {
		for ki, k := range Kinds {
			t.Run(k.String(), func(t *testing.T) {
				t.Parallel()
				for wi, name := range names {
					w, err := workload.Build(name, workload.ScaleTest)
					if err != nil {
						t.Fatal(err)
					}
					out, err := Run(k, w.Program, DefaultOptions())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					lines[wi*len(Kinds)+ki] = timingLine(name, k, out)
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	got := []byte(strings.Join(lines, "\n") + "\n")
	golden := filepath.Join("testdata", "timing.golden")
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
			t.Errorf("extra line: %s", l)
		} else if l != wantLines[i] {
			t.Errorf("timing drifted:\n got %s\nwant %s", l, wantLines[i])
		}
	}
	if len(wantLines) > len(lines) {
		t.Errorf("golden has %d lines, run produced %d", len(wantLines), len(lines))
	}
}
