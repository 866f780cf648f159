package rocksim_test

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCLIsRejectStrayArguments: a command exits 2 and names a positional
// argument it has no use for, rather than ignoring it and running
// something else (sstsim's default workload, every experiment of
// sstbench, or rkrun's -workload beside a source file). Each invocation
// would also exit at once without the check, so a command that ignores
// the argument fails here instead of hanging.
func TestCLIsRejectStrayArguments(t *testing.T) {
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, "./cmd/sstsim", "./cmd/sstbench",
		"./cmd/rocksimd", "./cmd/rockgate", "./cmd/tracelint", "./cmd/rkrun")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		cmd   string
		args  []string
		stray string
	}{
		{"sstsim", []string{"-list", "mcf"}, "mcf"},
		{"sstbench", []string{"-list", "T1"}, "T1"},
		{"rocksimd", []string{"-log-level", "bogus", "serve"}, "serve"},
		{"rockgate", []string{"-log-level", "bogus", "serve"}, "serve"},
		{"tracelint", []string{"trace.json"}, "trace.json"},
		{"rkrun", []string{"-workload", "bogus", "prog.s"}, "prog.s"},
		{"rkrun", []string{"a.s", "b.s"}, "b.s"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, filepath.Join(dir, tc.cmd), tc.args...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), strconv.Quote(tc.stray)) {
			t.Errorf("%s %s: %v, output %q; want exit status 2 naming %q",
				tc.cmd, strings.Join(tc.args, " "), err, out, tc.stray)
		}
	}
}
