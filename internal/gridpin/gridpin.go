// Package gridpin reads the pinned digests of every experiment's
// test-scale text: the grid map of cmd/rockbench/testdata/golden.json.
// rockbench checks them in its own module, and the tier-1 tests of the
// experiment harness and the gateway check the same pins, so one file
// pins the grid for every reader. Nothing here writes it; `rockbench
// -update-golden` re-pins it after an intended output change.
package gridpin

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// File is the pin file's path relative to the module root.
const File = "cmd/rockbench/testdata/golden.json"

// Pins maps an experiment id to the sha256 of its Result.Fprint text at
// test scale.
type Pins map[string]string

// Load reads the grid pins. root is the module root, relative to the
// caller's working directory (a test runs in its package directory).
func Load(root string) (Pins, error) {
	data, err := os.ReadFile(filepath.Join(root, File))
	if err != nil {
		return nil, err
	}
	var g struct {
		Grid Pins `json:"grid"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %v", File, err)
	}
	if len(g.Grid) == 0 {
		return nil, fmt.Errorf("%s: no grid digests", File)
	}
	return g.Grid, nil
}

// Check reports whether text is experiment id's pinned output.
func (p Pins) Check(id string, text []byte) error {
	want, ok := p[id]
	if !ok {
		return fmt.Errorf("%s: no pinned digest in %s", id, File)
	}
	sum := sha256.Sum256(text)
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("%s: text digest %.12s differs from the pin %.12s in %s (re-pin with rockbench -update-golden only after an intended output change)", id, got, want, File)
	}
	return nil
}
