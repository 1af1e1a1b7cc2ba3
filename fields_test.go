package ebslab

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

const fieldsAllowed = "testdata/fields_allow.txt"

// TestFieldsHaveReaders holds the tree to "every field has a reader": a
// struct field declared in non-test code outside bench/ must be read by a
// selector in non-test code of the module or in bench/*.go. Storing into a
// field is not reading it: a selector that is the whole left operand of =,
// the operand of ++, -- or an op-assign, or a key of a composite literal does
// not count. Taking the address (&x.f) does; every field of a struct type
// used as a map key or compared with == or != counts as read, and embedded
// fields are exempt. testdata/fields_allow.txt lists the fields that stay
// without such a reader — read by reflection into a pinned fixture, or by a
// test as its oracle — each with the reader named; a listed field that
// became read, or is gone, fails too, so the list can only shrink.
func TestFieldsHaveReaders(t *testing.T) {
	m := loadModule(t)
	fields := m.fields()

	allowed := readAllowlist(t, fieldsAllowed)
	var unread []string
	for name, f := range fields {
		switch {
		case f.read && allowed[name] != "":
			t.Errorf("%s: stale entry: %s is read (%s)", fieldsAllowed, name, f.pos)
		case !f.read && allowed[name] == "":
			unread = append(unread, fmt.Sprintf("%s (%s)", name, f.pos))
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("no program and no benchmark reads %s", u)
	}
	if len(unread) > 0 {
		t.Errorf("%d unread fields: delete them with whatever only fills them, or list a fixture- or test-read one in %s naming its reader", len(unread), fieldsAllowed)
	}
	var gone []string
	for name := range allowed {
		if fields[name] == nil {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		t.Errorf("%s: stale entry: %s is gone", fieldsAllowed, name)
	}

	// Mutants: fields only stored into must be reported, fields read through
	// their address or compared (as a map key or by ==) must not.
	const pkg = modulePath + "/internal/stats"
	m.addSource(t, pkg, "mutant.go", `package stats

type mutantSink struct {
	assigned, counted, literal, addressed int
}

type mutantKey struct{ a, b int }

type mutantEq struct{ c int }

var mutantSeen = map[mutantKey]bool{}

func mutantSame(x, y mutantEq) bool { return x == y }

func mutant() *int {
	s := mutantSink{literal: 1}
	s.assigned = 2
	s.counted += 3
	s.counted++
	mutantSeen[mutantKey{a: 1}] = true
	return &s.addressed
}
`)
	fields = m.fields()
	want := map[string]bool{
		pkg + ".mutantSink.assigned":  false,
		pkg + ".mutantSink.counted":   false,
		pkg + ".mutantSink.literal":   false,
		pkg + ".mutantSink.addressed": true,
		pkg + ".mutantKey.a":          true,
		pkg + ".mutantKey.b":          true,
		pkg + ".mutantEq.c":           true,
	}
	for name, r := range want {
		switch f := fields[name]; {
		case f == nil:
			t.Errorf("mutant %s was not collected", name)
		case f.read != r:
			t.Errorf("mutant %s: read = %v, want %v", name, f.read, r)
		}
	}
}

// field is one named, non-embedded struct field declared in the module.
type field struct {
	pos  string
	read bool
}

// fields returns every named, non-embedded struct field the module's non-test
// packages declare, by import/path.Type.Field (an anonymous struct's fields
// go by the enclosing function, method or variable, then each field on the
// way in), and whether something reads it. An anonymous struct spelled out
// twice declares its fields twice; reading either declaration reads the name.
func (m *module) fields() map[string]*field {
	read := m.fieldReads()
	out := make(map[string]*field)
	for path := range m.dirs {
		info := m.infos[path]
		var walk func(n ast.Node, prefix string)
		walk = func(n ast.Node, prefix string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					name := n.Name.Name
					if n.Recv != nil {
						name = recvName(n.Recv.List[0].Type) + "." + name
					}
					walk(n.Type, path+"."+name)
					if n.Body != nil {
						walk(n.Body, path+"."+name)
					}
				case *ast.ValueSpec:
					for _, e := range append([]ast.Expr{n.Type}, n.Values...) {
						if e != nil {
							walk(e, path+"."+n.Names[0].Name)
						}
					}
				case *ast.TypeSpec:
					walk(n.Type, path+"."+n.Name.Name)
				case *ast.StructType:
					for _, f := range n.Fields.List {
						for _, id := range f.Names {
							v, ok := info.Defs[id].(*types.Var)
							if !ok || id.Name == "_" {
								continue
							}
							name := prefix + "." + id.Name
							if out[name] == nil {
								out[name] = &field{pos: m.fset.Position(id.Pos()).String()}
							}
							out[name].read = out[name].read || read[v]
						}
						sub := prefix
						if len(f.Names) == 1 {
							sub += "." + f.Names[0].Name
						}
						walk(f.Type, sub)
					}
				default:
					return true
				}
				return false
			})
		}
		for _, f := range m.files[path] {
			walk(f, path)
		}
	}
	return out
}

// fieldReads returns the fields a selector reads somewhere in the module's
// non-test code or in bench/, and every field of a struct that is a map key
// or an == operand.
func (m *module) fieldReads() map[*types.Var]bool {
	read := make(map[*types.Var]bool)
	for path, files := range m.files {
		info := m.infos[path]
		stored := make(map[*ast.SelectorExpr]bool)
		store := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				stored[sel] = true
			}
		}
		for _, f := range files {
			// Inspect visits a statement before its operands, so a store is
			// marked before its selector is reached.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							store(lhs)
						}
					}
				case *ast.IncDecStmt:
					store(n.X)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						markCompared(info.TypeOf(n.X), read)
					}
				case *ast.SelectorExpr:
					if v, ok := info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !stored[n] {
						read[v.Origin()] = true
					}
				}
				return true
			})
		}
		for _, tv := range info.Types {
			if mt, ok := tv.Type.Underlying().(*types.Map); ok {
				markCompared(mt.Key(), read)
			}
		}
	}
	return read
}

// markCompared marks every field of t read when t is a struct (or an array of
// one): comparing two values compares all of them.
func markCompared(t types.Type, read map[*types.Var]bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Array:
		markCompared(u.Elem(), read)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i).Origin()
			if read[f] {
				continue
			}
			read[f] = true
			markCompared(f.Type(), read)
		}
	}
}
