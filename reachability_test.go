package mictrend

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
	"sort"
	"strings"
	"testing"
)

// reachabilityAllowlist names the declarations that no program reaches but
// that stay, each with its reason. Keys are "pkgpath.Name" for funcs and
// types and "pkgpath.Type.Method" for methods.
var reachabilityAllowlist = map[string]string{
	"mictrend/internal/faultpoint.Enable":             "crash-injection tests arm fault points",
	"mictrend/internal/faultpoint.Disable":            "crash-injection tests disarm fault points",
	"mictrend/internal/faultpoint.Reset":              "crash-injection tests clear fault points between cases",
	"mictrend/internal/faultpoint.Hits":               "crash-injection tests count how often a site ran",
	"mictrend/internal/faultpoint.Fired":              "crash-injection tests check that the armed fault fired",
	"mictrend/internal/changepoint.DetectExactPrefix": "oracle: the prefix-scan equivalence tests compare against it",
	"mictrend/internal/ssm.InterventionRegressor":     "tests build intervention designs with it",
	"mictrend/internal/mic.DefaultFilterOptions":      "filter tests start from the paper's thresholds",
	"mictrend/internal/linalg.Cholesky":               "oracle: the dense likelihood the Kalman filter is checked against",
	"mictrend/internal/linalg.NewCholesky":            "oracle: factors the dense covariance in the Kalman tests",
	"mictrend/internal/linalg.Cholesky.L":             "oracle: the Cholesky tests rebuild the matrix from the factor",
	"mictrend/internal/linalg.Cholesky.SolveVec":      "oracle: the dense likelihood's quadratic form",
	"mictrend/internal/linalg.Cholesky.LogDet":        "oracle: the dense likelihood's log-determinant",
	"mictrend/internal/linalg.Dot":                    "oracle: the dense likelihood's inner products",
	"mictrend/internal/stat.NormalCDF":                "oracle: the Student-t limit test compares against it",
	"mictrend/internal/stat.TTestResult.Significant":  "the PairedTTest example prints it",
}

// TestNoUnreachableDeclarations type-checks every non-test package of the
// module, perfbench and the examples, marks what the programs can reach, and
// fails on any top-level func, method or type that nothing reaches. The roots
// are every main, every package-level var initializer, every exported name
// of package mictrend and every exported method of a named type that the
// facade exposes through aliases, fields and signatures. A method whose name
// is an interface method counts as live when its type is live, since calls
// through an interface do not name the concrete method.
func TestNoUnreachableDeclarations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	// Type-check the pure-Go variants of the standard library, so the pass
	// needs no C toolchain. The source importer reads build.Default.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	imp := &moduleImporter{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
	}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		_, err = imp.Import(path.Join("mictrend", filepath.ToSlash(rel)))
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	g := newReachGraph(imp)
	g.markRoots()
	var dead []string
	seen := map[string]bool{}
	for _, d := range g.decls {
		if d.key == "" {
			continue
		}
		seen[d.key] = true
		if g.reached[d] {
			if _, ok := reachabilityAllowlist[d.key]; ok {
				t.Errorf("%s is reachable now: drop it from reachabilityAllowlist", d.key)
			}
			continue
		}
		if _, ok := reachabilityAllowlist[d.key]; !ok {
			dead = append(dead, fmt.Sprintf("%s (%s)", d.key, fset.Position(d.node.Pos())))
		}
	}
	for key := range reachabilityAllowlist {
		if !seen[key] {
			t.Errorf("%s no longer exists: drop it from reachabilityAllowlist", key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d declaration(s) no program reaches; delete them, or allowlist them with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// moduleImporter type-checks mictrend/... packages from their directories
// into one shared types.Info and hands every other path to the standard
// library's source importer.
type moduleImporter struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != "mictrend" && !strings.HasPrefix(path, "mictrend/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(m.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "mictrend"), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	m.pkgs[path] = pkg
	m.files[path] = files
	return pkg, nil
}

// reachDecl is one top-level declaration: a func, a method, a type spec or a
// value spec. key is empty for value specs, which the test does not flag.
type reachDecl struct {
	key  string
	node ast.Node
	obj  types.Object
}

type reachGraph struct {
	imp        *moduleImporter
	decls      []*reachDecl
	byObj      map[types.Object]*reachDecl
	reached    map[*reachDecl]bool
	work       []*reachDecl
	ifaceNames map[string]bool
	exposed    map[types.Type]bool
}

func newReachGraph(imp *moduleImporter) *reachGraph {
	g := &reachGraph{
		imp:        imp,
		byObj:      map[types.Object]*reachDecl{},
		reached:    map[*reachDecl]bool{},
		ifaceNames: map[string]bool{"Error": true}, // the universe's error
		exposed:    map[types.Type]bool{},
	}
	paths := make([]string, 0, len(imp.pkgs))
	for path := range imp.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	info := imp.info
	for _, path := range paths {
		for _, f := range imp.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					key := path + "." + d.Name.Name
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						key = path + "." + namedOf(recv.Type()).Obj().Name() + "." + d.Name.Name
					}
					rd := g.add(key, d, obj)
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && obj.Pkg().Name() == "main") {
						g.mark(rd)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							g.add(path+"."+s.Name.Name, s, info.Defs[s.Name])
						case *ast.ValueSpec:
							rd := g.add("", s, nil)
							for _, n := range s.Names {
								if obj := info.Defs[n]; obj != nil {
									g.byObj[obj] = rd
								}
							}
							// Initializers run at program start.
							if d.Tok == token.VAR && len(s.Values) > 0 {
								g.mark(rd)
							}
						}
					}
				}
			}
		}
		// Method names of the interfaces the module's code imports or
		// spells, plus encoding's, which encoding/json and fmt-style
		// printers dispatch on by reflection.
		for _, dep := range imp.pkgs[path].Imports() {
			if _, ok := imp.pkgs[dep.Path()]; !ok {
				g.addIfaceNames(dep)
			}
		}
	}
	if enc, err := imp.std.Import("encoding"); err == nil {
		g.addIfaceNames(enc)
	}
	for _, tv := range info.Types {
		g.addIface(tv.Type)
	}
	return g
}

func (g *reachGraph) addIfaceNames(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			g.addIface(tn.Type())
		}
	}
}

func (g *reachGraph) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			g.ifaceNames[it.Method(i).Name()] = true
		}
	}
}

// namedOf returns the named type behind t, a pointer to it or an alias of
// either, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

func (g *reachGraph) add(key string, node ast.Node, obj types.Object) *reachDecl {
	rd := &reachDecl{key: key, node: node, obj: obj}
	g.decls = append(g.decls, rd)
	if obj != nil {
		g.byObj[obj] = rd
	}
	return rd
}

func (g *reachGraph) mark(rd *reachDecl) {
	if rd != nil && !g.reached[rd] {
		g.reached[rd] = true
		g.work = append(g.work, rd)
	}
}

func (g *reachGraph) markObj(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	g.mark(g.byObj[obj])
}

// markRoots marks the facade's surface, then closes the reached set over
// every identifier use inside a reached declaration.
func (g *reachGraph) markRoots() {
	facade := g.imp.pkgs["mictrend"].Scope()
	for _, name := range facade.Names() {
		obj := facade.Lookup(name)
		if obj.Exported() {
			g.markObj(obj)
			g.expose(obj.Type())
		}
	}
	for len(g.work) > 0 {
		rd := g.work[len(g.work)-1]
		g.work = g.work[:len(g.work)-1]
		ast.Inspect(rd.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := g.imp.info.Uses[id]; obj != nil {
					g.markObj(obj)
				}
			}
			return true
		})
		if spec, ok := rd.node.(*ast.ValueSpec); ok {
			for _, n := range spec.Names {
				if obj := g.imp.info.Defs[n]; obj != nil {
					g.markNamed(obj.Type())
				}
			}
		}
		if tn, ok := rd.obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); g.ifaceNames[m.Name()] {
						g.markObj(m)
					}
				}
			}
		}
	}
}

func (g *reachGraph) markNamed(t types.Type) {
	if named := namedOf(t); named != nil {
		g.markObj(named.Origin().Obj())
	}
}

// expose marks the exported methods of every module type that t reaches
// through aliases, exported and embedded fields, and signatures.
func (g *reachGraph) expose(t types.Type) {
	t = types.Unalias(t)
	if t == nil || g.exposed[t] {
		return
	}
	g.exposed[t] = true
	switch t := t.(type) {
	case *types.Named:
		origin := t.Origin()
		g.markObj(origin.Obj())
		if pkg := origin.Obj().Pkg(); pkg != nil && g.imp.pkgs[pkg.Path()] != nil {
			for i := 0; i < origin.NumMethods(); i++ {
				if m := origin.Method(i); m.Exported() {
					g.markObj(m)
					g.expose(m.Type())
				}
			}
		}
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				g.expose(args.At(i))
			}
		}
		g.expose(origin.Underlying())
	case *types.Pointer:
		g.expose(t.Elem())
	case *types.Slice:
		g.expose(t.Elem())
	case *types.Array:
		g.expose(t.Elem())
	case *types.Chan:
		g.expose(t.Elem())
	case *types.Map:
		g.expose(t.Key())
		g.expose(t.Elem())
	case *types.Signature:
		g.expose(t.Params())
		g.expose(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			g.expose(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				g.expose(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			g.expose(t.Method(i).Type())
		}
	}
}
