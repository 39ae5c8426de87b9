package calibro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOneSpellingPerOperation keeps every operation to one exported
// spelling. Internal packages export the ctx-first function only, and the
// root package exports one convenience form, so no package may export a
// ...Parallel or ...Traced variant, both X and XCtx, or both X and
// XPaired (a paired call with a nil partner is the single-image form).
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
			case funcs[name+"Paired"] != "":
				twins = append(twins, dir+": "+name+" and "+name+"Paired")
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("second spelling of one operation: %s", tw)
	}
}

// TestDocsNameOnlyWhatExists keeps the user-facing documents honest about
// the tree: every `make <target>` they cite is a Makefile target, every
// cmd/<name> is a command directory, every internal/<pkg> path names a
// package directory, every BENCH_*.json archive is in
// the repository, and so is every .go, .md, .txt, .golden, .json or .sh
// file a code span names. CHANGES.md and ROADMAP.md are history and may name
// what has since been deleted.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	var (
		makeRE  = regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)")
		cmdRE   = regexp.MustCompile(`\bcmd/([a-z][a-z0-9]*)`)
		pkgRE   = regexp.MustCompile(`\binternal((?:/[a-z][a-z0-9_]*)+)(\.[a-z])?`)
		benchRE = regexp.MustCompile(`\bBENCH_[A-Za-z0-9_]+\.json`)
		codeRE  = regexp.MustCompile("`[^`\n]+`")
		fileRE  = regexp.MustCompile(`\.(go|md|txt|golden|json|sh)$`)
	)
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range makeRE.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s cites `make %s`, which is not a Makefile target", doc, m[1])
			}
		}
		for _, m := range cmdRE.FindAllStringSubmatch(text, -1) {
			if !exists(filepath.Join("cmd", m[1])) {
				t.Errorf("%s cites cmd/%s, which does not exist", doc, m[1])
			}
		}
		// A package path, e.g. internal/outline, is a directory; a file
		// path such as internal/outline/sequence.go names its directory.
		for _, m := range pkgRE.FindAllStringSubmatch(text, -1) {
			dir := "internal" + m[1]
			if m[2] != "" {
				dir = filepath.Dir(dir)
			}
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s cites %s, which is not a package directory", doc, dir)
			}
		}
		for _, name := range benchRE.FindAllString(text, -1) {
			if !exists(name) {
				t.Errorf("%s cites %s, which is not in the repository", doc, name)
			}
		}
		// Every file a code span names, e.g. `layerbench/run.sh` or a word
		// of `bash layerbench/run.sh`, is a path from the repository root.
		for _, span := range codeRE.FindAllString(text, -1) {
			for _, word := range strings.Fields(strings.Trim(span, "`")) {
				if fileRE.MatchString(word) && !exists(word) {
					t.Errorf("%s cites `%s`, which is not in the repository", doc, word)
				}
			}
		}
	}
}

// TestMakeFuzzRunsEveryFuzzer keeps the Makefile's fuzz recipe complete:
// every func FuzzX in the module is run exactly once, from its own
// package, under an anchored '^FuzzX$$' pattern (a bare pattern also
// matches every fuzzer whose name it prefixes, and go test then refuses
// to fuzz).
func TestMakeFuzzRunsEveryFuzzer(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := regexp.MustCompile(`(?m)^fuzz:\n((?:\t.*\n)+)`).FindSubmatch(makefile)
	if recipe == nil {
		t.Fatal("Makefile has no fuzz recipe")
	}
	lineRE := regexp.MustCompile(`^\$\(GO\) test (\./\S+) .*-fuzz '\^(Fuzz\w+)\$\$'`)
	runs := map[string][]string{} // fuzzer -> package paths that run it
	for _, line := range strings.Split(strings.TrimSpace(string(recipe[1])), "\n") {
		line = strings.TrimSpace(line)
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("fuzz recipe line %q does not run one anchored '^FuzzX$$' pattern", line)
			continue
		}
		runs[m[2]] = append(runs[m[2]], m[1])
	}

	fuzzRE := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	declared := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module; make fuzz does not reach it
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzRE.FindAllStringSubmatch(string(data), -1) {
			name := m[1]
			declared[name] = true
			switch got := runs[name]; {
			case len(got) == 0:
				t.Errorf("%s (%s) is not in the Makefile's fuzz recipe", name, pkg)
			case len(got) > 1:
				t.Errorf("%s runs %d times in the fuzz recipe", name, len(got))
			case got[0] != pkg:
				t.Errorf("%s is declared in %s, but the fuzz recipe runs it from %s", name, pkg, got[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range runs {
		if !declared[name] {
			t.Errorf("the fuzz recipe runs %s, which no test file declares", name)
		}
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
