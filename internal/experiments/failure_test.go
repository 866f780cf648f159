package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"rocksim/internal/cpu"
	"rocksim/internal/sim"
	"rocksim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/failure_digests.json")

// injectedFailure is the failure the digest test's backend gives the
// cell with cache key ck: every key whose FNV-32 is 0 mod 5 fails, with
// one of the five ERR classes picked by the same hash, and every other
// key computes normally. The choice depends on the key alone, so it is
// the same at any -j and in any experiment order.
func injectedFailure(ck string) error {
	h := fnv.New32a()
	io.WriteString(h, ck)
	v := h.Sum32()
	if v%5 != 0 {
		return nil
	}
	switch (v / 5) % 5 {
	case 0:
		return fmt.Errorf("injected %08x: %w", v, cpu.ErrLivelock)
	case 1:
		return fmt.Errorf("injected %08x: %w", v, cpu.ErrCycleLimit)
	case 2:
		return fmt.Errorf("injected %08x: %w", v, cpu.ErrDeadline)
	case 3:
		return fmt.Errorf("injected %08x: %w", v, &PanicError{Value: "injected"})
	}
	return fmt.Errorf("injected %08x: run failed", v)
}

// mixedFloor is the least number of experiments whose pinned text must
// hold both an ERR cell and a computed number. It keeps the test from
// being hollowed out: a change to the injection or the drivers that
// leaves most tables all-ERR or all-numeric pins nothing about how a
// partial failure renders.
const mixedFloor = 18

var decimalRe = regexp.MustCompile(`\d\.\d`)

// TestFailurePathDigests pins how every experiment renders partial
// failure. All experiments run at test scale on one Runner whose compute
// backend fails a fixed fifth of the cells (injectedFailure), and each
// Result.Fprint text must hash to the digest in
// testdata/failure_digests.json. That pins the ERR(reason) cells, the
// width of every ERR fill, a failed baseline degrading its row's ratios
// and the deduplicated ERR: lines. Regenerate with
// `go test ./internal/experiments -run TestFailurePathDigests -update`
// only after a deliberate change to an experiment's output.
func TestFailurePathDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := NewRunner()
	opts := sim.DefaultOptions()
	opts.MaxCycles = 200000
	r.SetBaseOptions(opts)
	r.SetComputeBackend(func(ctx context.Context, c sim.Cell, o sim.Options) (sim.Outcome, error) {
		if err := injectedFailure(CellKey(c, o)); err != nil {
			return sim.Outcome{}, err
		}
		return r.compute(ctx, c, o)
	})

	got := make(map[string]string, len(All))
	texts := make(map[string]string, len(All))
	mixed := 0
	for _, id := range All {
		res, err := r.Run(id, workload.ScaleTest)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var sb strings.Builder
		res.Fprint(&sb)
		text := sb.String()
		sum := sha256.Sum256([]byte(text))
		got[id] = hex.EncodeToString(sum[:])
		texts[id] = text
		if strings.Contains(text, "ERR(") && decimalRe.MatchString(text) {
			mixed++
		}
	}
	t.Logf("%d of %d experiments mix ERR cells with numbers", mixed, len(All))
	if mixed < mixedFloor {
		t.Errorf("%d experiments mix ERR cells with numbers, want at least %d", mixed, mixedFloor)
	}

	golden := filepath.Join("testdata", "failure_digests.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run TestFailurePathDigests -update` to regenerate)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	for _, id := range All {
		if got[id] != want[id] {
			t.Errorf("%s: failure-path text digest %s, want %s:\n%s", id, got[id], want[id], texts[id])
		}
	}
	if len(want) != len(All) {
		t.Errorf("%s pins %d experiments, want %d", golden, len(want), len(All))
	}
}
