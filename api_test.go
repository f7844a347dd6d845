// Dead-API check: every name declared under internal/, exported or not,
// must have a user outside the _test.go files. A package-level function,
// type, constant or variable, or a method, that only tests use, or a struct
// field that non-test code does not both set and read, is code the
// simulator does not need; delete it, or move it into the test file that
// uses it. Declarations local to a function are out of scope. The one-value
// knob check (TestNoOneValueKnobs, below) reads the same load.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// apiAllowlist names findings that stay on purpose, each with its reason.
// Keep it at most apiAllowlistCap entries.
var apiAllowlist = map[string]string{
	"internal/drivertest: func FlagParity":                 "shared helper of the drivers' TestFlagParity tests",
	"internal/drivertest: func StdoutPassivity":            "shared helper of the drivers' TestStdoutPassivity tests",
	"internal/drivertest: func Golden":                     "shared golden-file helper of the driver and package tests",
	"internal/drivertest: func Run":                        "shared helper of the drivers' TestScenarios end-to-end runs",
	"internal/drivertest: func TraceMetadataFirst":         "shared -trace artifact check of the ecperfsim and cachesweep TestScenarios",
	"internal/cluster: field Coordinator.OnWindow":         "test seam: the per-window conservation test checks the books as each lockstep window closes",
	"internal/workload/dbserver: method Server.QueueDepth": "ground truth for the co-simulation's per-window conservation test in internal/cluster",
	"internal/workload/dbserver: method Server.InService":  "ground truth for the co-simulation's per-window conservation test in internal/cluster",
	"internal/jvm: method Heap.IsLive":                     "lets the appserver and dbserver tests check that their caches root heap objects across a collection",
	"internal/obs/flightrec: method Recorder.Dumps":        "lets the core tests read each dump's trigger, cycle and bundle path",
}

const apiAllowlistCap = 10

// loadRepo loads and type-checks this module once for both checks.
var loadRepo = sync.OnceValues(func() (*apiChecker, error) {
	return loadAPI(".", []string{"bench"}, []string{"bench_test.go"})
})

func TestNoTestOnlyAPI(t *testing.T) {
	if len(apiAllowlist) > apiAllowlistCap {
		t.Errorf("allowlist has %d entries, cap is %d", len(apiAllowlist), apiAllowlistCap)
	}
	c, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	findings := c.findings()
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.Name] = true
		if reason, ok := apiAllowlist[f.Name]; ok && reason != "" {
			continue
		}
		t.Errorf("%s: %s has no user outside _test.go files", f.Pos, f.Name)
	}
	for name, reason := range apiAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %q has no reason", name)
		}
		if !seen[name] {
			t.Errorf("allowlist entry %q matches no finding; remove it", name)
		}
	}
	if t.Failed() {
		t.Log("delete each name above, or move it into the _test.go file that uses it")
	}
}

func TestNoTestOnlyAPIFixture(t *testing.T) {
	c, err := loadAPI(filepath.Join("testdata", "deadapi"), []string{"bench"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range c.findings() {
		got = append(got, f.Name)
	}
	want := []string{
		"internal/lib: field Config.Knob",
		"internal/lib: field Config.limit",
		"internal/lib: field Counter.calls",
		"internal/lib: field Counter.peak",
		"internal/lib: field Counter.ticks",
		"internal/lib: func TestOnly",
		"internal/lib: func helper",
		"internal/lib: method Counter.Reset",
		"internal/lib: method Fake.Next",
		"internal/lib: method Pool.Config",
		"internal/lib: type Fake",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// apiFinding is one name under internal/ without a non-test user.
type apiFinding struct {
	Name  string // "<package dir>: <kind> <name>"
	Pos   string // file:line of its declaration
	Value string // the one value a knob always has
}

// loadAPI type-checks the non-test packages of the module at root, plus
// rootFiles, test files of its root directory, and those of the nested
// modules siblings names (relative to root), which import this one; other
// nested modules are not part of the load. It records how that code uses
// the names declared under internal/.
//
// A name is used when non-test code refers to it outside its own
// declaration (a type's declaration includes its methods). A struct field
// is used only when that code both sets it and reads it. It is set by a
// keyed or positional literal, an assignment, ++/--, &x.f, a pointer-receiver
// call on x.f, or decoding a value of its type with encoding/json; a field
// so decoded counts as used. An assignment's left side, ++/--, an
// op-assign, a literal key and a reference in the value assigned to it
// (x.n = x.n + 1) only write it; any other reference reads it, &x.f too,
// as the pointer may be read through, and so does converting a value that
// contains it to an empty interface, as encoding/json and fmt take it and
// read it by reflection. A method is
// used when a value of its type is converted to an interface that has it.
// MarshalJSON, UnmarshalJSON, String and Error are used by reflection, and
// init by the runtime, so exempt.
func loadAPI(root string, siblings, rootFiles []string) (*apiChecker, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mods := map[string]string{".": modPath} // module directory, relative to root -> module path
	fset := token.NewFileSet()
	pkgs := map[string]*apiPkg{} // by import path
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		names := rootFiles
		if path != root {
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				if !slices.Contains(siblings, rel) {
					return filepath.SkipDir
				}
				if mods[rel], err = modulePath(filepath.Join(path, "go.mod")); err != nil {
					return err
				}
			}
			bp, err := build.ImportDir(path, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			} else if err != nil {
				return err
			}
			names = bp.GoFiles
		}
		p := &apiPkg{dir: rel}
		p.path, p.sibling = importPath(mods, rel)
		for _, n := range names {
			f, err := parser.ParseFile(fset, filepath.Join(path, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			pkgs[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	c := &apiChecker{
		fset:       fset,
		pkgs:       pkgs,
		std:        importer.ForCompiler(fset, "source", nil),
		own:        map[token.Pos][]span{},
		used:       map[token.Pos]bool{},
		set:        map[token.Pos]bool{},
		read:       map[token.Pos]bool{},
		siblingUse: map[token.Pos]bool{},
		knobs:      map[knobKey]*knobUse{},
		decoded:    map[token.Pos]bool{},
		callee:     map[*ast.Ident]bool{},
		asValue:    map[token.Pos]bool{},
		viaIface:   map[token.Pos]bool{},
		zeroFill:   map[token.Pos]string{},
	}
	for _, p := range sortedPkgs(pkgs) {
		if err := c.check(p); err != nil {
			return nil, err
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			c.collectOwn(p, f)
		}
	}
	for _, p := range pkgs {
		for id, o := range p.info.Uses {
			c.use(o, id.Pos())
			if p.sibling {
				c.siblingUse[origin(o).Pos()] = true
			}
		}
		for _, f := range p.files {
			c.collectUses(p.info, f)
		}
	}
	for _, p := range pkgs {
		for id, o := range p.info.Uses {
			if fn, ok := o.(*types.Func); ok && !c.callee[id] {
				c.asValue[origin(fn).Pos()] = true
			}
		}
	}
	return c, nil
}

// importPath is the import path of the package in directory rel: the path
// of the innermost module holding it, joined with rel's path inside it.
// nested reports whether that module is a nested one.
func importPath(mods map[string]string, rel string) (ipath string, nested bool) {
	for d := rel; ; d = path.Dir(d) {
		if mp, ok := mods[d]; ok {
			switch d {
			case rel:
				return mp, d != "."
			case ".":
				return mp + "/" + rel, false
			}
			return mp + "/" + strings.TrimPrefix(rel, d+"/"), true
		}
	}
}

type apiPkg struct {
	dir, path string
	files     []*ast.File
	types     *types.Package
	info      *types.Info
	checking  bool
	sibling   bool // in a nested module
}

type span struct{ from, to token.Pos }

type apiChecker struct {
	fset *token.FileSet
	pkgs map[string]*apiPkg
	std  types.Importer
	own  map[token.Pos][]span // declaration position -> its own declaration's extent
	used map[token.Pos]bool
	set  map[token.Pos]bool // struct fields that non-test code sets
	read map[token.Pos]bool // struct fields that non-test code reads

	siblingUse map[token.Pos]bool // names the nested modules use

	// For the one-value knob check:
	knobs    map[knobKey]*knobUse // the values non-test code gives each field and parameter
	decoded  map[token.Pos]bool   // fields of types decoded with encoding/json
	callee   map[*ast.Ident]bool  // identifiers naming the function a call calls
	asValue  map[token.Pos]bool   // functions referred to other than by calling them
	viaIface map[token.Pos]bool   // methods reachable through an interface
	zeroFill map[token.Pos]string // fields a defaults filler sets when zero: the constant it sets
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func sortedPkgs(m map[string]*apiPkg) []*apiPkg {
	var out []*apiPkg
	for _, p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// Import resolves the module's own packages to the ones already checked,
// checking them first when needed, and everything else from source.
func (c *apiChecker) Import(path string) (*types.Package, error) {
	p, ok := c.pkgs[path]
	if !ok {
		return c.std.Import(path)
	}
	if err := c.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (c *apiChecker) check(p *apiPkg) error {
	if p.types != nil {
		return nil
	}
	if p.checking {
		return fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: c}
	tp, err := conf.Check(p.path, c.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.path, err)
	}
	p.types = tp
	return nil
}

// collectOwn records the extent of each package-level declaration, so a
// reference from inside it (recursion, a method's receiver) is not a use.
func (c *apiChecker) collectOwn(p *apiPkg, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			sp := span{d.Pos(), d.End()}
			c.own[d.Name.Pos()] = append(c.own[d.Name.Pos()], sp)
			if fn, _ := p.info.Defs[d.Name].(*types.Func); d.Recv != nil && fn != nil {
				if tn := recvNamed(fn.Type().(*types.Signature)); tn != nil {
					c.own[tn.Pos()] = append(c.own[tn.Pos()], sp)
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					c.own[s.Name.Pos()] = append(c.own[s.Name.Pos()], span{s.Pos(), s.End()})
				case *ast.ValueSpec:
					for _, n := range s.Names {
						c.own[n.Pos()] = append(c.own[n.Pos()], span{s.Pos(), s.End()})
					}
				}
			}
		}
	}
}

func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func (c *apiChecker) use(o types.Object, at token.Pos) {
	o = origin(o)
	for _, sp := range c.own[o.Pos()] {
		if sp.from <= at && at < sp.to {
			return
		}
	}
	c.used[o.Pos()] = true
}

// collectUses marks the fields one non-test file sets and reads and the
// methods it converts to an interface, and records the values its
// literals, assignments and calls give fields and parameters (see knob).
func (c *apiChecker) collectUses(info *types.Info, f *ast.File) {
	writes := map[*ast.SelectorExpr]bool{} // field selections that only write
	// setField marks the fields selected along an lvalue such as a.b[i].c:
	// c is given value v (see constValue), and a and b change in place.
	// When the lvalue is assigned to (write), the selections whose storage
	// changes in place are writes; one reached through a pointer, slice or
	// map is still read.
	var setField func(e ast.Expr, v string, write bool)
	setField = func(e ast.Expr, v string, write bool) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			setField(e.X, v, write)
		case *ast.IndexExpr:
			_, array := info.TypeOf(e.X).Underlying().(*types.Array)
			setField(e.X, "", write && array)
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
				pos := origin(s.Obj()).Pos()
				c.set[pos] = true
				c.knob(knobKey{pos, -1}, v, true)
				writes[e] = write
				setField(e.X, "", write && !s.Indirect())
			}
		}
	}
	// selfReads marks the selections of lvalue l's field inside r, the
	// value assigned to it, as writes: x.n = x.n + 1 reads n only to
	// write it.
	selfReads := func(l, r ast.Expr) {
		sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
		if !ok {
			return
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		f := origin(s.Obj())
		ast.Inspect(r, func(n ast.Node) bool {
			if e, ok := n.(*ast.SelectorExpr); ok {
				if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal && origin(s.Obj()) == f {
					writes[e] = true
				}
			}
			return true
		})
	}
	// convert marks the methods of e's type that interface type to has.
	convert := func(e ast.Expr, to types.Type) {
		iface, ok := to.Underlying().(*types.Interface)
		if !ok || e == nil {
			return
		}
		from := info.TypeOf(e)
		if from == nil || types.IsInterface(from) {
			return
		}
		if iface.Empty() { // as encoding/json and fmt take it
			c.readAll(from, map[types.Type]bool{})
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if o, _, _ := types.LookupFieldOrMethod(from, true, m.Pkg(), m.Name()); o != nil {
				c.use(o, e.Pos())
				c.viaIface[origin(o).Pos()] = true
			}
		}
	}
	var results []*types.Tuple // enclosing function results
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body == nil {
				return false
			}
			sig, _ := info.Defs[n.Name].Type().(*types.Signature)
			results = append(results, sig.Results())
			ast.Inspect(n.Body, visit)
			results = results[:len(results)-1]
			return false
		case *ast.FuncLit:
			sig, _ := info.TypeOf(n).(*types.Signature)
			results = append(results, sig.Results())
			ast.Inspect(n.Body, visit)
			results = results[:len(results)-1]
			return false
		case *ast.ReturnStmt:
			if r := results[len(results)-1]; r.Len() == len(n.Results) {
				for i, e := range n.Results {
					convert(e, r.At(i).Type())
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				v := ""
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					v = constValue(info, n.Rhs[i])
				}
				setField(l, v, true)
				if len(n.Lhs) == len(n.Rhs) {
					selfReads(l, n.Rhs[i])
					if t := info.TypeOf(l); t != nil {
						convert(n.Rhs[i], t)
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) == len(n.Names) {
				for _, v := range n.Values {
					convert(v, info.TypeOf(n.Type))
				}
			}
		case *ast.IfStmt:
			c.defaultsFiller(info, n)
		case *ast.IncDecStmt:
			setField(n.X, "", true)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				setField(n.X, "", false)
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				convert(n.Value, ch.Elem())
			}
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !writes[n] {
				c.read[origin(s.Obj()).Pos()] = true
			}
			// x.f.M() with a pointer receiver takes &x.f.
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				if sig := s.Obj().Type().(*types.Signature); sig.Recv() != nil {
					if _, ptr := sig.Recv().Type().(*types.Pointer); ptr && !types.IsInterface(s.Recv()) {
						if _, isPtr := s.Recv().(*types.Pointer); !isPtr {
							setField(n.X, "", false)
						}
					}
				}
			}
		case *ast.CompositeLit:
			c.compositeLit(info, n, convert)
		case *ast.CallExpr:
			c.call(info, n, convert)
		}
		return true
	}
	ast.Inspect(f, visit)
}

// defaultsFiller records a zero-filling default of a numeric field,
// if x.F == 0 { x.F = K }: a construction that leaves F zero gives it K.
// Two fillers that disagree leave F's zero value standing for no one
// constant.
func (c *apiChecker) defaultsFiller(info *types.Info, n *ast.IfStmt) {
	cond, ok := n.Cond.(*ast.BinaryExpr)
	if !ok || n.Init != nil || n.Else != nil || cond.Op != token.EQL || len(n.Body.List) != 1 {
		return
	}
	as, ok := n.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	field := func(e ast.Expr) types.Object {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return origin(s.Obj())
			}
		}
		return nil
	}
	f := field(cond.X)
	if f == nil || f != field(as.Lhs[0]) || types.ExprString(cond.X) != types.ExprString(as.Lhs[0]) ||
		constValue(info, cond.Y) != "0" || zeroValue(f.Type()) != "0" {
		return
	}
	k := constValue(info, as.Rhs[0])
	if old, ok := c.zeroFill[f.Pos()]; ok && old != k {
		k = ""
	}
	c.zeroFill[f.Pos()] = k
}

func (c *apiChecker) compositeLit(info *types.Info, n *ast.CompositeLit, convert func(ast.Expr, types.Type)) {
	t := info.TypeOf(n)
	if t == nil {
		return
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok { // &T{} elided in a slice literal
		t = ptr.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		named := map[token.Pos]bool{}
		for i, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if o := info.Uses[kv.Key.(*ast.Ident)]; o != nil {
					e, o = kv.Value, origin(o)
					named[o.Pos()] = true
					c.set[o.Pos()] = true
					c.knob(knobKey{o.Pos(), -1}, constValue(info, e), true)
					convert(e, o.Type())
				}
			} else if i < u.NumFields() {
				f := origin(u.Field(i))
				named[f.Pos()] = true
				c.set[f.Pos()] = true
				c.knob(knobKey{f.Pos(), -1}, constValue(info, e), true)
				convert(e, u.Field(i).Type())
			}
		}
		// A field the literal leaves out gets its zero value.
		for i := 0; i < u.NumFields(); i++ {
			if f := origin(u.Field(i)); !named[f.Pos()] {
				c.knob(knobKey{f.Pos(), -1}, zeroValue(f.Type()), false)
			}
		}
	case *types.Slice, *types.Array, *types.Map:
		var key, elem types.Type
		switch u := u.(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		case *types.Map:
			key, elem = u.Key(), u.Elem()
		}
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if key != nil {
					convert(kv.Key, key)
				}
				e = kv.Value
			}
			convert(e, elem)
		}
	}
}

func (c *apiChecker) call(info *types.Info, n *ast.CallExpr, convert func(ast.Expr, types.Type)) {
	switch f := ast.Unparen(n.Fun).(type) {
	case *ast.Ident:
		c.callee[f] = true
	case *ast.SelectorExpr:
		c.callee[f.Sel] = true
	}
	if fn := calledFunc(info, n.Fun); fn != nil {
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Variadic() && i == sig.Params().Len()-1 {
				break
			}
			v := "" // f(g()) spreads a call's results
			if len(n.Args) >= sig.Params().Len() {
				v = constValue(info, n.Args[i])
			}
			c.knob(knobKey{origin(fn).Pos(), i}, v, true)
		}
	}
	tv := info.Types[n.Fun]
	if tv.IsType() {
		if len(n.Args) == 1 {
			convert(n.Args[0], tv.Type)
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, a := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if !n.Ellipsis.IsValid() {
				pt = pt.(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			convert(a, pt)
		}
	}
	// Decoding into a value with encoding/json sets every field it can reach.
	var target ast.Expr
	if fn := calledFunc(info, n.Fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
		switch fn.FullName() {
		case "encoding/json.Unmarshal":
			target = n.Args[1]
		case "(*encoding/json.Decoder).Decode":
			target = n.Args[0]
		}
	}
	if target != nil {
		c.setAll(info.TypeOf(target), map[types.Type]bool{})
	}
}

func calledFunc(info *types.Info, fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// setAll marks the fields encoding/json can reach from a value of type t
// as decoded.
func (c *apiChecker) setAll(t types.Type, seen map[types.Type]bool) {
	eachField(t, seen, func(f *types.Var) {
		c.set[origin(f).Pos()] = true
		c.decoded[origin(f).Pos()] = true
	})
}

// readAll marks the fields a value of type t contains as read.
func (c *apiChecker) readAll(t types.Type, seen map[types.Type]bool) {
	eachField(t, seen, func(f *types.Var) { c.read[origin(f).Pos()] = true })
}

// eachField calls do on every struct field a value of type t contains,
// through pointers, slices, arrays, map elements and nested structs.
func eachField(t types.Type, seen map[types.Type]bool, do func(*types.Var)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		eachField(u.Elem(), seen, do)
	case *types.Slice:
		eachField(u.Elem(), seen, do)
	case *types.Array:
		eachField(u.Elem(), seen, do)
	case *types.Map:
		eachField(u.Elem(), seen, do)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			do(u.Field(i))
			eachField(u.Field(i).Type(), seen, do)
		}
	}
}

// exemptMethods are found by encoding/json and fmt through reflection.
var exemptMethods = map[string]bool{"MarshalJSON": true, "UnmarshalJSON": true, "String": true, "Error": true}

// findings lists the names declared under internal/ without a use.
func (c *apiChecker) findings() []apiFinding {
	var out []apiFinding
	report := func(p *apiPkg, kind, name string, pos token.Pos) {
		out = append(out, apiFinding{
			Name: fmt.Sprintf("%s: %s %s", p.dir, kind, name),
			Pos:  c.fset.Position(pos).String(),
		})
	}
	for _, p := range sortedPkgs(c.pkgs) {
		if p.dir != "internal" && !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for id, o := range p.info.Defs {
			if o == nil || id.Name == "_" {
				continue
			}
			pos := o.Pos()
			switch o := o.(type) {
			case *types.Func:
				sig := o.Type().(*types.Signature)
				if sig.Recv() == nil {
					if !c.used[pos] && o.Name() != "init" {
						report(p, "func", o.Name(), pos)
					}
					continue
				}
				if types.IsInterface(sig.Recv().Type()) || exemptMethods[o.Name()] || c.used[pos] {
					continue
				}
				if tn := recvNamed(sig); tn != nil {
					report(p, "method", tn.Name()+"."+o.Name(), pos)
				}
			case *types.Var:
				if o.IsField() {
					if !o.Anonymous() && !c.decoded[pos] && !(c.set[pos] && c.read[pos]) {
						if owner := fieldOwner(p, o); owner != "" {
							report(p, "field", owner+"."+o.Name(), pos)
						}
					}
				} else if isPkgLevel(p, o) && !c.used[pos] {
					report(p, "var", o.Name(), pos)
				}
			case *types.Const:
				if isPkgLevel(p, o) && !c.used[pos] {
					report(p, "const", o.Name(), pos)
				}
			case *types.TypeName:
				if isPkgLevel(p, o) && !c.used[pos] {
					report(p, "type", o.Name(), pos)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func isPkgLevel(p *apiPkg, o types.Object) bool { return o.Parent() == p.types.Scope() }

func recvNamed(sig *types.Signature) *types.TypeName {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// fieldOwner names the package-level struct type declaring field v, or ""
// when v belongs to an anonymous or function-local struct.
func fieldOwner(p *apiPkg, v *types.Var) string {
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return name
				}
			}
		}
	}
	return ""
}

// One-value knob check: a setting that every production caller gives the
// same value is a constant in disguise. The check flags an exported struct
// field under internal/ that every non-test construction sets to one
// constant (a literal that leaves the field out gives it its zero value),
// and a non-string parameter of an exported function or method under
// internal/ that every non-test call passes one constant or nil. Fields of
// types decoded with encoding/json, functions referred to as values,
// methods reachable through an interface, variadic parameters and names a
// sibling module uses are exempt. Make each finding a constant of its
// package, or drop it.

// knobAllowlist names knobs that stay settable on purpose, each with its
// reason. Keep it at most knobAllowlistCap entries.
var knobAllowlist = map[string]string{
	"internal/memsys: field Latencies.L2Hit":   "a memory-system latency the sensitivity map perturbs",
	"internal/memsys: field Latencies.Memory":  "a memory-system latency the sensitivity map perturbs",
	"internal/memsys: field Latencies.Upgrade": "a memory-system latency the sensitivity map perturbs",
}

const knobAllowlistCap = 6

func TestNoOneValueKnobs(t *testing.T) {
	if len(knobAllowlist) > knobAllowlistCap {
		t.Errorf("allowlist has %d entries, cap is %d", len(knobAllowlist), knobAllowlistCap)
	}
	c, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range c.knobFindings() {
		seen[f.Name] = true
		if reason, ok := knobAllowlist[f.Name]; ok && reason != "" {
			continue
		}
		t.Errorf("%s: %s is always %s", f.Pos, f.Name, f.Value)
	}
	for name, reason := range knobAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %q has no reason", name)
		}
		if !seen[name] {
			t.Errorf("allowlist entry %q matches no finding; remove it", name)
		}
	}
	if t.Failed() {
		t.Log("make each knob above a constant of its package, or drop it")
	}
}

func TestNoOneValueKnobsFixture(t *testing.T) {
	c, err := loadAPI(filepath.Join("testdata", "knobs"), []string{"bench"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range c.knobFindings() {
		got = append(got, f.Name+" = "+f.Value)
	}
	want := []string{
		"internal/lib: field Config.Depth = 8",
		"internal/lib: field Config.Ways = 4",
		"internal/lib: field Config.Zero = 0",
		"internal/lib: param New(limit) = -1",
		"internal/lib: param New(seed) = nil",
		"internal/lib: param Server.Serve(quiet) = false",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// knobKey is a struct field (param -1) or a function's param'th parameter,
// by declaration position.
type knobKey struct {
	pos   token.Pos
	param int
}

// knobUse collects the values non-test code gives one knob.
type knobUse struct {
	values   map[string]bool // "" stands for a value that is not a constant
	explicit bool            // some construction names the knob
}

func (c *apiChecker) knob(k knobKey, v string, explicit bool) {
	u := c.knobs[k]
	if u == nil {
		u = &knobUse{values: map[string]bool{}}
		c.knobs[k] = u
	}
	u.values[v] = true
	u.explicit = u.explicit || explicit
}

// oneValue returns the constant every construction or call gives k. A
// field's zero value counts as the constant its defaults filler sets.
func (c *apiChecker) oneValue(k knobKey) (string, bool) {
	u := c.knobs[k]
	if u == nil || !u.explicit {
		return "", false
	}
	fill, filled := c.zeroFill[k.pos]
	one := ""
	for v := range u.values {
		if filled && k.param < 0 && v == "0" {
			v = fill
		}
		if v == "" || (one != "" && v != one) {
			return "", false
		}
		one = v
	}
	return one, one != ""
}

// constValue is the exact value of a constant expression, "nil" for nil,
// and "" for anything else.
func constValue(info *types.Info, e ast.Expr) string {
	tv := info.Types[e]
	switch {
	case tv.Value != nil:
		return tv.Value.ExactString()
	case tv.IsNil():
		return "nil"
	}
	return ""
}

// zeroValue is the constValue of t's zero value, or "" when that is not
// a constant (a struct or an array).
func zeroValue(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return "false"
		case u.Info()&types.IsString != 0:
			return `""`
		case u.Info()&types.IsNumeric != 0:
			return "0"
		}
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return "nil"
	}
	return ""
}

// knobFindings lists the one-value knobs declared under internal/.
func (c *apiChecker) knobFindings() []apiFinding {
	var out []apiFinding
	report := func(p *apiPkg, kind, name, value string, pos token.Pos) {
		out = append(out, apiFinding{
			Name:  fmt.Sprintf("%s: %s %s", p.dir, kind, name),
			Pos:   c.fset.Position(pos).String(),
			Value: value,
		})
	}
	for _, p := range sortedPkgs(c.pkgs) {
		if p.dir != "internal" && !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for id, o := range p.info.Defs {
			if o == nil || !id.IsExported() || c.siblingUse[o.Pos()] {
				continue
			}
			pos := o.Pos()
			switch o := o.(type) {
			case *types.Var:
				if !o.IsField() || o.Anonymous() || c.decoded[pos] {
					continue
				}
				if owner := fieldOwner(p, o); owner != "" {
					if v, ok := c.oneValue(knobKey{pos, -1}); ok {
						report(p, "field", owner+"."+o.Name(), v, pos)
					}
				}
			case *types.Func:
				sig := o.Type().(*types.Signature)
				if c.asValue[pos] || c.viaIface[pos] {
					continue
				}
				name := o.Name()
				if sig.Recv() != nil {
					tn := recvNamed(sig)
					if tn == nil || types.IsInterface(sig.Recv().Type()) {
						continue
					}
					name = tn.Name() + "." + name
				}
				for i := 0; i < sig.Params().Len(); i++ {
					prm := sig.Params().At(i)
					if sig.Variadic() && i == sig.Params().Len()-1 {
						break
					}
					if b, ok := prm.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						continue
					}
					if v, ok := c.oneValue(knobKey{pos, i}); ok {
						report(p, "param", fmt.Sprintf("%s(%s)", name, prm.Name()), v, prm.Pos())
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
