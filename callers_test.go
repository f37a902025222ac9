package bcrdb

// The caller rule, as a test: every name and every knob in the product
// has a production caller, and every file a comment cites exists. It
// type-checks the whole module with the standard library alone
// (go/types, the default importer for the standard library) and fails
// with the list of what broke the rules:
//
//  1. Names. Every exported func, method, type, const, var and field
//     declared in non-test Go under internal/ is referenced by non-test
//     Go somewhere in the module. A method also counts as called when it
//     makes its type satisfy an interface declared in the module or one
//     of satisfiedStd.
//  2. Knobs. Every exported field of a struct named *Options, *Config
//     or *Policy, in the root package or under internal/, is written
//     (composite-literal key or assignment) by non-test Go outside its
//     declaring package. A field only its own defaulting sets has one
//     value in production: it is a constant.
//  3. References. A file name ending in .md or .go in a Go comment
//     names a file that exists.
//
// Deleting what it finds is the fix; callerAllowlist holds the few names
// kept on purpose, each with its reason, and an entry nothing needs any
// more fails the test too.

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
	"regexp"
	"sort"
	"strings"
	"testing"
)

// allowlistCap bounds callerAllowlist; it only ever goes down.
const allowlistCap = 5

// callerAllowlist names what the rules would delete but the product keeps,
// keyed as the failure message prints it.
var callerAllowlist = map[string]string{
	"core.Node.DeliveringOrderer":   "which orderer feeds a node: the failover tests and diagnostics read it",
	"ssi.SerialOrder":               "the apparent serial order of a committed history, beside the MVSG checker",
	"core.Node.Alerts":              "§3.5 detection: the checkpoint mismatches a node observed",
	"core.Node.Vacuum":              "version pruning, until the memory item's horizon replaces it",
	"bcrdb.Options.CheckpointEvery": "§3.3.4: checkpoints cover a preconfigured number of blocks",
}

// satisfiedStd are the standard-library interfaces, besides error, whose
// methods count as called on any module type that implements them.
var satisfiedStd = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"net", "Listener"},
	{"net", "Conn"},
	{"io", "Closer"},
}

const modulePath = "bcrdb"

// loadedPkg is one directory of the module, type-checked twice: its
// production files alone (what other packages import), and with its
// in-package and external test files (only to tell a test caller apart).
type loadedPkg struct {
	path     string      // import path
	files    []*ast.File // production files
	inTests  []*ast.File // _test.go files of the same package
	extTests []*ast.File // _test.go files of package <name>_test
	pkg      *types.Package
	info     *types.Info
}

type moduleLoader struct {
	fset  *token.FileSet
	root  string
	pkgs  map[string]*loadedPkg
	order []*loadedPkg // production checks, dependencies first
	std   types.Importer
	infos []*types.Info // every check, production and test
}

func newInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}

// Import resolves module packages from source and everything else with
// the standard library's export data.
func (l *moduleLoader) Import(p string) (*types.Package, error) {
	if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
		return l.std.Import(p)
	}
	lp := l.pkgs[p]
	if lp == nil {
		return nil, fmt.Errorf("package %s not in the module", p)
	}
	if lp.pkg == nil {
		if err := l.check(lp); err != nil {
			return nil, err
		}
	}
	return lp.pkg, nil
}

func (l *moduleLoader) check(lp *loadedPkg) error {
	lp.info = newInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(lp.path, l.fset, lp.files, lp.info)
	if err != nil {
		return fmt.Errorf("type-check %s: %w", lp.path, err)
	}
	lp.pkg = pkg
	l.order = append(l.order, lp)
	l.infos = append(l.infos, lp.info)
	return nil
}

// checkTests type-checks a package's test files: the in-package ones with
// the production files, the external ones against that augmented package.
// As the go tool builds an external test, every module package that
// imports the package under test is re-checked against the augmented one
// too, so a test may hand one of its values to another package.
func (l *moduleLoader) checkTests(lp *loadedPkg) error {
	imp := types.Importer(l)
	if len(lp.inTests) > 0 {
		info := newInfo()
		aug, err := (&types.Config{Importer: l}).Check(lp.path, l.fset, append(append([]*ast.File{}, lp.files...), lp.inTests...), info)
		if err != nil {
			return fmt.Errorf("type-check %s tests: %w", lp.path, err)
		}
		l.infos = append(l.infos, info)
		imp = l.testImporter(lp.path, aug)
	}
	if len(lp.extTests) == 0 {
		return nil
	}
	info := newInfo()
	if _, err := (&types.Config{Importer: imp}).Check(lp.path+"_test", l.fset, lp.extTests, info); err != nil {
		return fmt.Errorf("type-check %s_test: %w", lp.path, err)
	}
	l.infos = append(l.infos, info)
	return nil
}

// testImporter resolves target to aug and re-checks against it every
// module package that imports target, directly or through others.
func (l *moduleLoader) testImporter(target string, aug *types.Package) types.Importer {
	rechecked := map[string]*types.Package{target: aug}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg := rechecked[p]; pkg != nil {
			return pkg, nil
		}
		lp := l.pkgs[p]
		if lp == nil || !dependsOn(lp.pkg, target) {
			return l.Import(p)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p, l.fset, lp.files, nil)
		if err != nil {
			return nil, fmt.Errorf("type-check %s against %s's tests: %w", p, target, err)
		}
		rechecked[p] = pkg
		return pkg, nil
	}
	return imp
}

// dependsOn reports whether pkg imports the module package target,
// directly or through other module packages.
func dependsOn(pkg *types.Package, target string) bool {
	for _, dep := range pkg.Imports() {
		if dep.Path() == target || (strings.HasPrefix(dep.Path(), modulePath+"/") || dep.Path() == modulePath) && dependsOn(dep, target) {
			return true
		}
	}
	return false
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(p string) (*types.Package, error) { return f(p) }

// loadModule parses every build-selected Go file under root and
// type-checks each package, production and test.
func loadModule(root string) (*moduleLoader, error) {
	l := &moduleLoader{fset: token.NewFileSet(), root: root, pkgs: map[string]*loadedPkg{}, std: importer.Default()}
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); dir != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		lp := &loadedPkg{path: path.Join(modulePath, filepath.ToSlash(rel))}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			switch {
			case !strings.HasSuffix(e.Name(), "_test.go"):
				lp.files = append(lp.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				lp.extTests = append(lp.extTests, f)
			default:
				lp.inTests = append(lp.inTests, f)
			}
		}
		if len(lp.files) > 0 {
			l.pkgs[lp.path] = lp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		if err := l.checkTests(l.pkgs[p]); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *moduleLoader) isTestPos(pos token.Pos) bool {
	return strings.HasSuffix(l.fset.Position(pos).Filename, "_test.go")
}

// declName is how a finding and its allowlist key name a declaration:
// the import path without "bcrdb/internal/", then the receiver or
// struct type, then the name.
func declName(pkg *types.Package, owner, name string) string {
	p := strings.TrimPrefix(pkg.Path(), modulePath+"/internal/")
	if owner != "" {
		return p + "." + owner + "." + name
	}
	return p + "." + name
}

// callerUses counts, per declaration position, the references from
// production files and from test files.
type callerUses struct {
	prod, test map[token.Pos]bool
}

func (l *moduleLoader) uses() callerUses {
	u := callerUses{prod: map[token.Pos]bool{}, test: map[token.Pos]bool{}}
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			if l.isTestPos(id.Pos()) {
				u.test[obj.Pos()] = true
			} else {
				u.prod[obj.Pos()] = true
			}
		}
	}
	l.markSatisfied(u.prod)
	return u
}

// markSatisfied marks as used every method that makes a module type
// implement a module interface (named or literal) or one of satisfiedStd.
func (l *moduleLoader) markSatisfied(used map[token.Pos]bool) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, s := range satisfiedStd {
		pkg, err := l.std.Import(s.pkg)
		if err != nil {
			continue
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	var named []*types.Named
	for _, lp := range l.order {
		for _, tv := range lp.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, obj := range lp.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		for _, it := range ifaces {
			var t types.Type = n
			if !types.Implements(t, it) {
				if t = types.NewPointer(n); !types.Implements(t, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
					used[obj.Pos()] = true
				}
			}
		}
	}
}

// ruleNames is rule 1 over every package under internal/.
func (l *moduleLoader) ruleNames(u callerUses) []string {
	var out []string
	report := func(obj types.Object, owner string) {
		if !obj.Exported() || u.prod[obj.Pos()] {
			return
		}
		who := "nothing uses it"
		if u.test[obj.Pos()] {
			who = "only tests use it"
		}
		out = append(out, fmt.Sprintf("%s (%s, %s)", declName(obj.Pkg(), owner, obj.Name()), l.fset.Position(obj.Pos()), who))
	}
	for _, lp := range l.order {
		if !strings.HasPrefix(lp.path, modulePath+"/internal/") {
			continue
		}
		scope := lp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(obj, "")
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() {
				continue
			}
			n := tn.Type().(*types.Named)
			for i := 0; i < n.NumMethods(); i++ {
				report(n.Method(i), name)
			}
			switch t := n.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < t.NumFields(); i++ {
					report(t.Field(i), name)
				}
			case *types.Interface:
				for i := 0; i < t.NumExplicitMethods(); i++ {
					report(t.ExplicitMethod(i), name)
				}
			}
		}
		// Exported methods of unexported types are callable through
		// values the package hands out.
		for _, obj := range lp.info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() == nil {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok && !n.Obj().Exported() {
				report(fn, n.Obj().Name())
			}
		}
	}
	return out
}

var knobStruct = regexp.MustCompile(`(Options|Config|Policy)$`)

// ruleKnobs is rule 2 over the root package and every package under
// internal/.
func (l *moduleLoader) ruleKnobs() []string {
	type field struct {
		name string
		pkg  *types.Package
	}
	fields := map[token.Pos]field{}
	for _, lp := range l.order {
		if lp.path != modulePath && !strings.HasPrefix(lp.path, modulePath+"/internal/") {
			continue
		}
		scope := lp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !knobStruct.MatchString(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f.Pos()] = field{declName(lp.pkg, name, f.Name()), lp.pkg}
				}
			}
		}
	}
	written := map[token.Pos]bool{}
	write := func(info *types.Info, pkg *types.Package, id *ast.Ident) {
		if obj := info.Uses[id]; obj != nil {
			if f, ok := fields[obj.Pos()]; ok && f.pkg.Path() != pkg.Path() {
				written[obj.Pos()] = true
			}
		}
	}
	lhs := func(info *types.Info, pkg *types.Package, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(info, pkg, sel.Sel)
		}
	}
	for _, lp := range l.order {
		for _, f := range lp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						write(lp.info, lp.pkg, id)
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(lp.info, lp.pkg, e)
					}
				case *ast.IncDecStmt:
					lhs(lp.info, lp.pkg, n.X)
				}
				return true
			})
		}
	}
	var out []string
	for pos, f := range fields {
		if !written[pos] {
			out = append(out, fmt.Sprintf("%s (%s)", f.name, l.fset.Position(pos)))
		}
	}
	return out
}

var fileRef = regexp.MustCompile(`\b[A-Za-z0-9][A-Za-z0-9_./-]*\.(md|go)\b`)

// ruleRefs is rule 3 over the comments of every Go file, test files
// included. A name resolves to a file of the module whose path, from the
// module root, is the name or ends with "/" and the name.
func (l *moduleLoader) ruleRefs() ([]string, error) {
	var files []string
	err := filepath.WalkDir(l.root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != l.root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(l.root, p)
		files = append(files, "/"+filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	resolves := func(ref string) bool {
		for _, f := range files {
			if strings.HasSuffix(f, "/"+ref) {
				return true
			}
		}
		return false
	}
	var out []string
	for _, lp := range l.pkgs {
		for _, f := range append(append(append([]*ast.File{}, lp.files...), lp.inTests...), lp.extTests...) {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, ref := range fileRef.FindAllString(c.Text, -1) {
						if !resolves(ref) {
							out = append(out, fmt.Sprintf("%s (%s)", ref, l.fset.Position(c.Pos())))
						}
					}
				}
			}
		}
	}
	return out, nil
}

func TestEveryNameHasAProductionCaller(t *testing.T) {
	l, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := l.ruleRefs()
	if err != nil {
		t.Fatal(err)
	}
	rules := []struct {
		title    string
		findings []string
	}{
		{"rule 1, names: exported under internal/ and referenced by no production file", l.ruleNames(l.uses())},
		{"rule 2, knobs: Options/Config/Policy fields no production file outside their package writes", l.ruleKnobs()},
		{"rule 3, references: comments naming a file that does not exist", refs},
	}
	needed := map[string]bool{}
	for _, r := range rules {
		var bad []string
		for _, f := range r.findings {
			key, _, _ := strings.Cut(f, " ")
			if _, ok := callerAllowlist[key]; ok {
				needed[key] = true
				continue
			}
			bad = append(bad, f)
		}
		if len(bad) > 0 {
			sort.Strings(bad)
			t.Errorf("%s: delete them, or allowlist one with its reason\n\t%s", r.title, strings.Join(bad, "\n\t"))
		}
	}
	for key := range callerAllowlist {
		if !needed[key] {
			t.Errorf("allowlist entry %s excuses nothing any more: remove it", key)
		}
	}
	if n := len(callerAllowlist); n > allowlistCap {
		t.Errorf("allowlist holds %d entries; at most %d may bypass the caller rule", n, allowlistCap)
	}
}
