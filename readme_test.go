package rocksim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeListsTree keeps README's maps of the tree current: the
// "Tools" table has exactly one row per directory under cmd/, and the
// "Architecture overview" block exactly one line per top-level
// directory under internal/.
func TestReadmeListsTree(t *testing.T) {
	doc := readFile(t, "README.md")
	tools := section(doc, regexp.MustCompile(`^## Tools$`), "## ")
	overview := regexp.MustCompile("(?s)```\n(.*?)```").FindStringSubmatch(
		section(doc, regexp.MustCompile(`^## Architecture overview$`), "## "))
	if tools == "" || overview == nil {
		t.Fatal(`README.md has no "## Tools" section or no "## Architecture overview" block`)
	}
	checkListed(t, `the "Tools" table`, "cmd", regexp.MustCompile("(?m)^\\| `cmd/([a-z]+)` \\|"), tools)
	checkListed(t, `the "Architecture overview" block`, "internal", regexp.MustCompile(`(?m)^  ([a-z]+)/ `), overview[1])
}

// TestDocsNameExistingTree keeps the docs from naming code that is
// gone: every `cmd/<name>` and `internal/<name>` in the Makefile,
// README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and the skill notes
// under .claude/skills must be a directory of the tree. CHANGES.md and
// ROADMAP.md are history and may name deleted code; the benchmark's own
// cmd/rockbench/README.md is not scanned.
func TestDocsNameExistingTree(t *testing.T) {
	files := []string{"Makefile", "README.md", "DESIGN.md", "EXPERIMENTS.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	err = filepath.WalkDir(".claude/skills", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "SKILL.md" {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`\b(?:cmd|internal)/[a-z][a-z0-9_]*`)
	for _, f := range files {
		for i, line := range strings.Split(readFile(t, f), "\n") {
			for _, dir := range ref.FindAllString(line, -1) {
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names %s, which is not a directory of the tree", f, i+1, dir)
				}
			}
		}
	}
}

// checkListed compares the names re captures in text with the
// directories under dir.
func checkListed(t *testing.T, where, dir string, re *regexp.Regexp, text string) {
	t.Helper()
	var listed, have []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		listed = append(listed, m[1])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			have = append(have, e.Name())
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, have) {
		t.Errorf("README.md: %s lists %v; %s/ holds %v", where, listed, dir, have)
	}
}
