package calibro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOneSpellingPerOperation keeps every operation to one exported
// spelling. Internal packages export the ctx-first function only, and the
// root package exports one convenience form, so no package may export a
// ...Parallel or ...Traced variant, or both X and XCtx.
func TestOneSpellingPerOperation(t *testing.T) {
	dirs := append([]string{"."}, internalDirs(t)...)
	var twins []string
	for _, dir := range dirs {
		funcs := exportedFuncs(t, dir)
		for name := range funcs {
			switch {
			case strings.HasSuffix(name, "Parallel"), strings.HasSuffix(name, "Traced"):
				twins = append(twins, dir+": "+name)
			case funcs[name+"Ctx"] != "":
				twins = append(twins, dir+": "+name+" and "+name+"Ctx")
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("second spelling of one operation: %s", tw)
	}
}

// TestEveryExportIsCalled requires every exported package-level function
// in internal/ to be referenced from some .go file other than the one that
// declares it; tests and the layerbench module count. An export nothing
// else calls is an entry point no caller exercises: delete it, or
// unexport it when its own file is the only user.
func TestEveryExportIsCalled(t *testing.T) {
	refs := referencingFiles(t)
	var uncalled []string
	for _, dir := range internalDirs(t) {
		for name, file := range exportedFuncs(t, dir) {
			called := false
			for ref := range refs["repro/"+filepath.ToSlash(dir)+"."+name] {
				called = called || ref != file
			}
			if !called {
				uncalled = append(uncalled, file+": "+name)
			}
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("exported function referenced only where it is declared: %s", u)
	}
}

// internalDirs returns every package directory under internal/.
func internalDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// referencingFiles maps "import/path.Name" to the set of .go files in the
// repository that mention the name: through an import's selector from
// another package, or as a bare identifier inside its own package
// directory.
func referencingFiles(t *testing.T) map[string]map[string]bool {
	t.Helper()
	refs := map[string]map[string]bool{}
	add := func(key, file string) {
		if refs[key] == nil {
			refs[key] = map[string]bool{}
		}
		refs[key][file] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			name := pathpkg.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		own := "repro/" + filepath.ToSlash(filepath.Dir(path)) + "."
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					add(imports[x.Name]+"."+n.Sel.Name, path)
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				add(own+n.Name, path)
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// exportedFuncs maps the exported package-level functions declared in the
// non-test Go files of dir to the file that declares each.
func exportedFuncs(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := map[string]string{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = path
			}
		}
	}
	return funcs
}
