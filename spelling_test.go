package calibro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneSpellingPerOperation keeps every operation to one exported
// spelling. Internal packages export the ctx-first function only, and the
// root package exports one convenience form, so no package may export a
// ...Parallel or ...Traced variant, or both X and XCtx.
func TestOneSpellingPerOperation(t *testing.T) {
	dirs := []string{"."}
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
	var twins []string
	for _, dir := range dirs {
		funcs := exportedFuncs(t, dir)
		for name := range funcs {
			switch {
			case strings.HasSuffix(name, "Parallel"), strings.HasSuffix(name, "Traced"):
				twins = append(twins, dir+": "+name)
			case funcs[name+"Ctx"]:
				twins = append(twins, dir+": "+name+" and "+name+"Ctx")
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("second spelling of one operation: %s", tw)
	}
}

// exportedFuncs returns the exported package-level functions declared in
// the non-test Go files of dir.
func exportedFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				funcs[fd.Name.Name] = true
			}
		}
	}
	return funcs
}
