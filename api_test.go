// Dead-API check: every name declared under internal/, exported or not,
// must have a user outside the _test.go files. A package-level function,
// type, constant or variable, or a method, that only tests use, or a struct
// field that only tests set, is code the simulator does not need; delete
// it, or move it into the test file that uses it. Declarations local to a
// function are out of scope. The one-value knob check (TestNoOneValueKnobs,
// below) reads the same load.
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
	"path/filepath"
	"reflect"
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
		"internal/lib: func TestOnly",
		"internal/lib: func helper",
		"internal/lib: method Counter.Reset",
		"internal/lib: method Fake.Next",
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
// rootFiles, test files of its root directory, and records how that code
// uses the names declared under internal/. Nested modules are not
// part of the module; siblings names those (relative to root) that import
// it, and their non-test files are read without types (see readSibling).
//
// A name is used when non-test code refers to it outside its own
// declaration (a type's declaration includes its methods). A struct field
// is used only when that code sets it: a keyed or positional literal, an
// assignment, ++/--, &x.f, a pointer-receiver call on x.f, or decoding a
// value of its type with encoding/json. A method is used when a value of
// its type is converted to an interface that has it. MarshalJSON,
// UnmarshalJSON, String and Error are used by reflection, and init by the
// runtime, so exempt.
func loadAPI(root string, siblings, rootFiles []string) (*apiChecker, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs := map[string]*apiPkg{} // by import path
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		names := rootFiles
		if path != root {
			bp, err := build.ImportDir(path, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			} else if err != nil {
				return err
			}
			names = bp.GoFiles
		}
		p := &apiPkg{dir: rel, path: modPath}
		if rel != "." {
			p.path += "/" + rel
		}
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
		siblingUse: map[string]bool{},
		knobs:      map[knobKey]*knobUse{},
		decoded:    map[token.Pos]bool{},
		callee:     map[*ast.Ident]bool{},
		asValue:    map[token.Pos]bool{},
		viaIface:   map[token.Pos]bool{},
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
	for _, s := range siblings {
		if err := c.readSibling(filepath.Join(root, s)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

type apiPkg struct {
	dir, path string
	files     []*ast.File
	types     *types.Package
	info      *types.Info
	checking  bool
}

type span struct{ from, to token.Pos }

type apiChecker struct {
	fset       *token.FileSet
	pkgs       map[string]*apiPkg
	std        types.Importer
	own        map[token.Pos][]span // declaration position -> its own declaration's extent
	used       map[token.Pos]bool
	set        map[token.Pos]bool // struct fields that non-test code sets
	siblingUse map[string]bool    // "path.Name" and member names that sibling modules use

	// For the one-value knob check:
	knobs    map[knobKey]*knobUse // the values non-test code gives each field and parameter
	decoded  map[token.Pos]bool   // fields of types decoded with encoding/json
	callee   map[*ast.Ident]bool  // identifiers naming the function a call calls
	asValue  map[token.Pos]bool   // functions referred to other than by calling them
	viaIface map[token.Pos]bool   // methods reachable through an interface
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

// collectUses marks the fields one non-test file sets and the methods it
// converts to an interface, and records the values its literals,
// assignments and calls give fields and parameters (see knob).
func (c *apiChecker) collectUses(info *types.Info, f *ast.File) {
	// setField marks the fields selected along an lvalue such as a.b[i].c:
	// c is given value v (see constValue), and a and b change in place.
	var setField func(e ast.Expr, v string)
	setField = func(e ast.Expr, v string) {
		switch e := e.(type) {
		case *ast.ParenExpr:
			setField(e.X, v)
		case *ast.IndexExpr:
			setField(e.X, "")
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
				pos := origin(s.Obj()).Pos()
				c.set[pos] = true
				c.knob(knobKey{pos, -1}, v, true)
				setField(e.X, "")
			}
		}
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
				setField(l, v)
				if len(n.Lhs) == len(n.Rhs) {
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
		case *ast.IncDecStmt:
			setField(n.X, "")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				setField(n.X, "")
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				convert(n.Value, ch.Elem())
			}
		case *ast.SelectorExpr:
			// x.f.M() with a pointer receiver takes &x.f.
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				if sig := s.Obj().Type().(*types.Signature); sig.Recv() != nil {
					if _, ptr := sig.Recv().Type().(*types.Pointer); ptr && !types.IsInterface(s.Recv()) {
						if _, isPtr := s.Recv().(*types.Pointer); !isPtr {
							setField(n.X, "")
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

func (c *apiChecker) setAll(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		c.setAll(u.Elem(), seen)
	case *types.Slice:
		c.setAll(u.Elem(), seen)
	case *types.Array:
		c.setAll(u.Elem(), seen)
	case *types.Map:
		c.setAll(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			c.set[origin(u.Field(i)).Pos()] = true
			c.decoded[origin(u.Field(i)).Pos()] = true
			c.setAll(u.Field(i).Type(), seen)
		}
	}
}

// readSibling records the names a nested module's non-test files use. Such
// a module imports this one by path, so it is read without types: pkg.Name
// is a use of that package-level name, and any other x.Name or Name: key a
// use of every method and field so named.
func (c *apiChecker) readSibling(dir string) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ipath
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					c.siblingUse[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					c.siblingUse[n.Sel.Name] = true
				}
			case *ast.CompositeLit:
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if k, ok := kv.Key.(*ast.Ident); ok {
							c.siblingUse[k.Name] = true
						}
					}
				}
			}
			return true
		})
		return nil
	})
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
			if c.siblingUses(p, id, o) {
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
					if !o.Anonymous() && !c.set[pos] {
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

// siblingUses reports whether a sibling module may use the name id
// declares. A sibling module can reach only exported names.
func (c *apiChecker) siblingUses(p *apiPkg, id *ast.Ident, o types.Object) bool {
	return id.IsExported() && (c.siblingUse[id.Name] && !isPkgLevel(p, o) || c.siblingUse[p.path+"."+id.Name])
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
	"internal/memsys: field Latencies.L2Hit":     "a memory-system latency the sensitivity map perturbs",
	"internal/memsys: field Latencies.Memory":    "a memory-system latency the sensitivity map perturbs",
	"internal/memsys: field Latencies.Upgrade":   "a memory-system latency the sensitivity map perturbs",
	"internal/memsys: param Hierarchy.DTLB(cpu)": "an index, not a knob: the per-processor accessor, like L1D and L1I; the ISM ablation reads processor 0's TLB",
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

// oneValue returns the constant every construction or call gives k.
func (c *apiChecker) oneValue(k knobKey) (string, bool) {
	u := c.knobs[k]
	if u == nil || !u.explicit || len(u.values) != 1 {
		return "", false
	}
	for v := range u.values {
		return v, v != ""
	}
	return "", false
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
			if o == nil || !id.IsExported() || c.siblingUses(p, id, o) {
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
