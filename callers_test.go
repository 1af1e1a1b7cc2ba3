package ebslab

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

const (
	modulePath     = "ebslab"
	callersAllowed = "testdata/callers_allow.txt"
)

// stdlibDynamic declares, as one interface, the standard-library interface
// methods this module implements and reaches only through the interface. A
// method whose name and signature both match one of them is live as soon as
// its receiver type is; a method that shares only the name (a Done() bool
// beside context.Context's Done() <-chan struct{}) needs a caller like any
// other.
const stdlibDynamic = `package stdlib

import (
	"container/heap"
	"context"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
)

type dynamic interface {
	fmt.Stringer
	error
	io.ReadWriteCloser
	heap.Interface
	flag.Value
	net.Conn
	net.Listener
	net.Addr
	context.Context
	rand.Source64
	json.Marshaler
	json.Unmarshaler
	encoding.TextMarshaler
	encoding.TextUnmarshaler
	Unwrap() error // errors.Unwrap
	Is(error) bool // errors.Is
}
`

// TestDeclarationsHaveCallers holds the tree to "every declaration has a
// caller": it type-checks every non-test package outside bench/, walks
// references from every cmd/* main and init plus everything bench/*.go uses,
// and fails on a package-level declaration or method nothing reaches unless
// testdata/callers_allow.txt lists it — and on a listed name that is
// reachable or gone, so the list can only shrink.
func TestDeclarationsHaveCallers(t *testing.T) {
	m := loadModule(t)
	live := m.reach()

	allowed := readAllowlist(t, callersAllowed)
	used := make(map[string]bool)     // allowlist entries that excuse something
	liveName := make(map[string]bool) // reachable declarations by name...
	livePkg := make(map[string]bool)  // ...and the packages that hold one
	var dead []string
	for obj, d := range m.decls {
		switch {
		case live[obj]:
			liveName[d.name], livePkg[d.pkg] = true, true
		case allowed[d.name] != "":
			used[d.name] = true
		case allowed[d.pkg+".*"] != "":
			used[d.pkg+".*"] = true
		default:
			dead = append(dead, fmt.Sprintf("%s (%s)", d.name, d.pos))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no program and no benchmark reaches %s", d)
	}
	if len(dead) > 0 {
		t.Errorf("%d unreachable declarations: delete them, or list a test harness or oracle in %s with its reason", len(dead), callersAllowed)
	}

	var stale []string
	for name := range allowed {
		switch pkg, whole := strings.CutSuffix(name, ".*"); {
		case whole && livePkg[pkg]:
			stale = append(stale, name+" has reachable declarations: list the unreachable ones by name")
		case liveName[name]:
			stale = append(stale, name+" is reachable")
		case !used[name]:
			stale = append(stale, name+" is gone")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("%s: stale entry: %s", callersAllowed, s)
	}
}

// decl is one package-level declaration or method of the module.
type decl struct {
	name string // import/path.Name or import/path.Type.Method
	pkg  string
	pos  string
	node ast.Node    // the span whose identifiers are this declaration's references
	info *types.Info // of the package that holds node
}

type module struct {
	fset  *token.FileSet
	pkgs  map[string]*types.Package // by import path, module packages only
	infos map[string]*types.Info
	files map[string][]*ast.File
	dirs  map[string]string // import path -> directory
	std   types.Importer

	decls   map[types.Object]*decl
	roots   []types.Object
	dynamic map[string][]*types.Func // interface methods by name: what a method is reached through
}

// Import type-checks module packages from source (one *types.Package per
// path, so objects compare by identity across packages) and hands the rest to
// the standard library's source importer.
func (m *module) Import(path string) (*types.Package, error) {
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	return m.check(path, dir, false)
}

func (m *module) check(path, dir string, tests bool) (*types.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || (!tests && strings.HasSuffix(name, "_test.go")) {
			continue
		}
		// Only the files this platform builds: a package may pair an
		// assembly-backed file with a stub for every other architecture.
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.infos[path], m.files[path] = pkg, info, files
	return pkg, nil
}

func loadModule(t *testing.T) *module {
	t.Helper()
	if _, err := os.Stat(filepath.Join(runtime.GOROOT(), "src", "fmt")); err != nil {
		t.Skipf("GOROOT/src absent, the source importer cannot type-check: %v", err)
	}
	fset := token.NewFileSet()
	m := &module{
		fset:    fset,
		pkgs:    make(map[string]*types.Package),
		infos:   make(map[string]*types.Info),
		files:   make(map[string][]*ast.File),
		dirs:    make(map[string]string),
		std:     importer.ForCompiler(fset, "source", nil),
		decls:   make(map[types.Object]*decl),
		dynamic: make(map[string][]*types.Func),
	}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			if src, _ := filepath.Glob(filepath.Join(p, "*.go")); len(src) > 0 {
				m.dirs[modulePath+"/"+filepath.ToSlash(p)] = p
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path, dir := range m.dirs {
		if m.pkgs[path] != nil {
			continue
		}
		if _, err := m.check(path, dir, false); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	f, err := parser.ParseFile(fset, "stdlib.go", stdlibDynamic, 0)
	if err != nil {
		t.Fatal(err)
	}
	std, err := (&types.Config{Importer: m.std}).Check("stdlib", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatalf("type-check the standard-library interfaces: %v", err)
	}
	dyn := std.Scope().Lookup("dynamic").Type().Underlying().(*types.Interface)
	for i := 0; i < dyn.NumMethods(); i++ {
		m.addDynamic(dyn.Method(i))
	}
	for path := range m.dirs {
		m.collect(path)
	}

	// bench/ is a module of its own that no root-module package can import;
	// what it uses of this module is live because the benchmark runs it.
	const bench = modulePath + "/bench"
	if _, err := m.check(bench, "bench", true); err != nil {
		t.Fatalf("type-check bench: %v", err)
	}
	for _, obj := range m.infos[bench].Uses {
		m.roots = append(m.roots, origin(obj))
	}
	return m
}

// collect records path's declarations, its roots (what a program's main and
// any package's init reference) and the methods its interface types
// declare, named or literal.
func (m *module) collect(path string) {
	info := m.infos[path]
	add := func(id *ast.Ident, node ast.Node, recv string) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		name := path + "." + recv + id.Name
		m.decls[obj] = &decl{name: name, pkg: path, pos: m.fset.Position(id.Pos()).String(), node: node, info: info}
	}
	for _, f := range m.files[path] {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && m.pkgs[path].Name() == "main") {
					// Entry points are not declarations anything could call;
					// what they reference is where the walk starts.
					m.roots = append(m.roots, m.refs(d, info)...)
					continue
				}
				recv := ""
				if d.Recv != nil {
					recv = recvName(d.Recv.List[0].Type) + "."
				}
				add(d.Name, d, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s, "")
						}
					}
				}
			}
		}
	}
	for _, f := range m.files[path] {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				iface := info.Types[it].Type.(*types.Interface)
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					m.addDynamic(iface.ExplicitMethod(i))
				}
			}
			return true
		})
	}
}

func (m *module) addDynamic(fn *types.Func) {
	m.dynamic[fn.Name()] = append(m.dynamic[fn.Name()], fn)
}

// isDynamic reports whether an interface method fn could be called through
// has fn's name and signature (receivers aside).
func (m *module) isDynamic(fn *types.Func) bool {
	for _, im := range m.dynamic[fn.Name()] {
		if types.Identical(im.Type(), fn.Type()) {
			return true
		}
	}
	return false
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// refs lists the objects the identifiers under node resolve to (reach keeps
// those that are module declarations).
func (m *module) refs(node ast.Node, info *types.Info) []types.Object {
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				out = append(out, origin(obj))
			}
		}
		return true
	})
	return out
}

// reach walks references from the roots. A method is followed when something
// live names it, or when its receiver type is live and an interface could
// call it: one declares a method of the same name and signature.
func (m *module) reach() map[types.Object]bool {
	live := make(map[types.Object]bool)
	work := append([]types.Object(nil), m.roots...)
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		d := m.decls[obj]
		if d == nil || live[obj] {
			continue
		}
		live[obj] = true
		work = append(work, m.refs(d.node, d.info)...)
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if fn := named.Method(i); m.isDynamic(fn) {
						work = append(work, fn)
					}
				}
			}
		}
	}
	return live
}

// readAllowlist parses file's "name  # reason" lines (callers_allow.txt names
// whole packages as "import/path.*"); the reason is mandatory.
func readAllowlist(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := make(map[string]string)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if reason == "" {
			t.Fatalf("%s:%d: %s has no reason", file, line, name)
		}
		if allowed[name] != "" {
			t.Fatalf("%s:%d: %s listed twice", file, line, name)
		}
		allowed[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allowed
}
