package ebslab

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const knobBudgetFile = "testdata/knobs.txt"

// knobType names the option-bearing structs: an exported struct type named
// Config, Options, Plan, StudySpec or Lending, or ending in Config or Options.
var knobType = regexp.MustCompile(`^(([A-Z][A-Za-z0-9]*)?(Config|Options)|Plan|StudySpec|Lending)$`)

// flagDef names the flag-package functions and *flag.FlagSet methods that
// define a command-line flag.
var flagDef = regexp.MustCompile(`^(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?$`)

// TestKnobBudget counts the independently settable values per package
// directory — each exported field of a knobType struct in non-test code, plus
// each flag defined there, through the flag package or a *flag.FlagSet — and
// fails when a directory holds more or fewer knobs than its line in
// testdata/knobs.txt says, or has a line and no knob, so the budget stays
// exact. A flag counts in the package that defines it, not in the program
// that parses it. `make knobs` runs it with -v for the per-directory table an
// options PR reports before and after (ROADMAP aim 2).
func TestKnobBudget(t *testing.T) {
	m := loadModule(t)
	got := m.knobs()
	budget := readKnobBudget(t)
	dirs := make([]string, 0, len(got))
	for dir := range got {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	total := 0
	for _, dir := range dirs {
		n := got[dir]
		total += n
		t.Logf("%7d %s", n, dir)
		switch b, listed := budget[dir]; {
		case !listed:
			t.Errorf("%s: %d knobs and no line in %s", dir, n, knobBudgetFile)
		case n > b:
			t.Errorf("%s: %d knobs, over its budget of %d in %s", dir, n, b, knobBudgetFile)
		case n < b:
			t.Errorf("%s: %d knobs, under its budget of %d: lower its line in %s", dir, n, b, knobBudgetFile)
		}
	}
	for dir, b := range budget {
		if _, counted := got[dir]; !counted {
			t.Errorf("%s: no knobs, but a budget of %d in %s: delete its line", dir, b, knobBudgetFile)
		}
	}
	t.Logf("%7d total", total)

	// Mutant: a package that binds flags through a FlagSet it is handed (as
	// gateway.StudySpec.BindFlags does) must pay for them in its own line, and
	// FlagSet calls that define nothing must not count.
	const pkg, dir = modulePath + "/internal/scenario", "internal/scenario"
	m.addSource(t, pkg, "mutant.go", `package scenario

import "flag"

func bindMutant(fs *flag.FlagSet) {
	var n int
	fs.IntVar(&n, "mutant-n", 0, "")
	_ = fs.Bool("mutant-b", false, "")
	_ = flag.String("mutant-s", "", "")
	_ = fs.Parse(nil)
	_ = fs.Lookup("mutant-n").Value.String()
}
`)
	if after := m.knobs()[dir]; after != got[dir]+3 {
		t.Errorf("mutant binding three flags in %s: %d knobs, want %d + 3", dir, after, got[dir])
	}
}

// knobs returns the knob count of every directory that has one.
func (m *module) knobs() map[string]int {
	n := make(map[string]int)
	for path, files := range m.files {
		dir, ok := m.dirs[path]
		if !ok {
			continue // bench/, loaded only for what it uses
		}
		info := m.infos[path]
		for _, f := range files {
			for _, d := range f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
					for _, s := range g.Specs {
						if k := knobFields(s.(*ast.TypeSpec)); k > 0 {
							n[dir] += k
						}
					}
				}
			}
			ast.Inspect(f, func(node ast.Node) bool {
				if sel, ok := node.(*ast.SelectorExpr); ok && definesFlag(info.Uses[sel.Sel]) {
					n[dir]++
				}
				return true
			})
		}
	}
	return n
}

// definesFlag reports whether obj is a flag-package function or *flag.FlagSet
// method that defines a flag.
func definesFlag(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || !flagDef.MatchString(fn.Name()) {
		return false
	}
	name := fn.FullName()
	return name == "flag."+fn.Name() || name == "(*flag.FlagSet)."+fn.Name()
}

// addSource re-type-checks the package at path with one more file, parsed
// from src: the in-memory mutant a counting check runs against.
func (m *module) addSource(t *testing.T, path, name, src string) {
	t.Helper()
	f, err := parser.ParseFile(m.fset, filepath.Join(m.dirs[path], name), src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	files := append(append([]*ast.File(nil), m.files[path]...), f)
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	if _, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info); err != nil {
		t.Fatal(err)
	}
	m.files[path], m.infos[path] = files, info
}

// knobFields is the number of exported fields ts declares when it is a
// knobType struct, else 0.
func knobFields(ts *ast.TypeSpec) int {
	st, ok := ts.Type.(*ast.StructType)
	if !ok || !knobType.MatchString(ts.Name.Name) {
		return 0
	}
	n := 0
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.IsExported() {
				n++
			}
		}
	}
	return n
}

// readKnobBudget parses "directory count" lines; # starts a comment.
func readKnobBudget(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(knobBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budget := make(map[string]int)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("%s:%d: want \"directory count\", got %q", knobBudgetFile, line, sc.Text())
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			t.Fatalf("%s:%d: count %q", knobBudgetFile, line, fields[1])
		}
		if _, dup := budget[fields[0]]; dup {
			t.Fatalf("%s:%d: %s listed twice", knobBudgetFile, line, fields[0])
		}
		budget[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return budget
}
