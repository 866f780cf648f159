package rocksim_test

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSourcesGofmtClean fails when any Go source file in the repository
// differs from its gofmt form (go/format, the printer gofmt uses). It
// walks the tree as the go tool does, skipping testdata and directories
// whose names start with "." or "_", and includes cmd/rockbench, which
// is its own module.
func TestSourcesGofmtClean(t *testing.T) {
	n := 0
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
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		got, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(got, src) {
			t.Errorf("%s is not gofmt-clean (run gofmt -w %s)", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("checked only %d Go files; is the test running from the repository root?", n)
	}
}
