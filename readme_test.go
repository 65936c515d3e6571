package xmp_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// architecturePaths parses README's Architecture block: an entry starts in
// column 0, or in column 2 under the last column-0 directory; anything
// indented deeper continues a description.
func architecturePaths(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "## Architecture\n\n```\n")
	block, _, ok2 := strings.Cut(rest, "```")
	if !ok || !ok2 {
		t.Fatal("README.md has no fenced block under ## Architecture")
	}
	paths := map[string]bool{}
	parent := ""
	for _, line := range strings.Split(strings.TrimRight(block, "\n"), "\n") {
		entry := strings.TrimLeft(line, " ")
		name, _, _ := strings.Cut(entry, " ")
		switch len(line) - len(entry) {
		case 0:
			parent = name
			paths[filepath.Clean(name)] = true
		case 2:
			paths[filepath.Join(parent, name)] = true
		}
	}
	return paths
}

// TestReadmeArchitecture keeps the Architecture block a map of the tree:
// every path it names exists, and every directory holding Go code — at the
// top level, and under internal/ and cmd/ — is named, itself or through an
// entry beneath it.
func TestReadmeArchitecture(t *testing.T) {
	paths := architecturePaths(t)
	for p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("README's Architecture block names %s: %v", p, err)
		}
	}

	hasGo := func(dir string) bool {
		found := false
		filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				found = true
				return fs.SkipAll
			}
			return nil
		})
		return found
	}
	named := func(dir string) bool {
		for p := range paths {
			if p == dir || strings.HasPrefix(p, dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}
	for _, pattern := range []string{"*", "internal/*", "cmd/*"} {
		dirs, _ := filepath.Glob(pattern)
		for _, dir := range dirs {
			if st, err := os.Stat(dir); err != nil || !st.IsDir() || strings.HasPrefix(dir, ".") {
				continue
			}
			if hasGo(dir) && !named(dir) {
				t.Errorf("%s holds Go code and README's Architecture block does not name it", dir)
			}
		}
	}
}
