package ebslab

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzFunc matches a fuzz target's declaration; fuzzLine a fuzz-smoke recipe
// line's package and target.
var (
	fuzzFunc = regexp.MustCompile(`^func (Fuzz[A-Za-z0-9_]*)\(\w+ \*testing\.F\)`)
	fuzzLine = regexp.MustCompile(`^\t\$\(GO\) test (\./\S+) -fuzz (\w+) `)
)

// TestFuzzSmokeListsEveryTarget fails when a fuzz target in a _test.go file
// of the module has no line in the Makefile's fuzz-smoke recipe, or when a
// recipe line names a target that its package does not declare (go test
// -fuzz matching nothing passes without fuzzing).
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if m := fuzzFunc.FindStringSubmatch(sc.Text()); m != nil {
				declared["./"+filepath.ToSlash(filepath.Dir(path))+" "+m[1]] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("no fuzz targets found in the module")
	}

	listed := map[string]bool{}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	inRecipe := false
	for _, line := range strings.Split(string(mk), "\n") {
		switch {
		case strings.HasPrefix(line, "fuzz-smoke:"):
			inRecipe = true
		case inRecipe && strings.HasPrefix(line, "\t"):
			if m := fuzzLine.FindStringSubmatch(line); m != nil {
				listed[m[1]+" "+m[2]] = true
			}
		default:
			inRecipe = false
		}
	}

	var missing, stale []string
	for k := range declared {
		if !listed[k] {
			missing = append(missing, k)
		}
	}
	for k := range listed {
		if !declared[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, k := range missing {
		t.Errorf("fuzz target %s has no line in the Makefile's fuzz-smoke recipe", k)
	}
	for _, k := range stale {
		t.Errorf("fuzz-smoke runs %s, which its package does not declare", k)
	}
	t.Logf("fuzz-smoke lists %d of %d fuzz targets", len(listed)-len(stale), len(declared))
}
