package rocksim_test

import (
	"os"
	"regexp"
	"slices"
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
