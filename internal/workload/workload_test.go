package workload

import (
	"slices"
	"testing"

	"repro/internal/dex"
)

func TestGenerateValidApps(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		app, man, err := Generate(Profile{
			Name: "g", Seed: seed, Methods: 80,
			NativeFrac: 0.1, SwitchFrac: 0.1, HotFrac: 0.05,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := app.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(man.Drivers) != NumDrivers {
			t.Errorf("drivers = %d", len(man.Drivers))
		}
		s := app.CollectStats()
		if s.Methods != 80+NumDrivers {
			t.Errorf("methods = %d", s.Methods)
		}
		if s.Native == 0 {
			t.Errorf("seed %d: no native methods", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{Name: "d", Seed: 7, Methods: 50, SwitchFrac: 0.1}
	a1, m1, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a2, m2, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Methods) != len(a2.Methods) || len(m1.Hot) != len(m2.Hot) {
		t.Fatal("shape differs between identical generations")
	}
	for i := range a1.Methods {
		c1, c2 := a1.Methods[i].Code, a2.Methods[i].Code
		if len(c1) != len(c2) {
			t.Fatalf("method %d differs", i)
		}
		for j := range c1 {
			if c1[j].Op != c2[j].Op || c1[j].Lit != c2[j].Lit {
				t.Fatalf("method %d insn %d differs", i, j)
			}
		}
	}
}

func TestCallGraphIsForwardOnly(t *testing.T) {
	app, _, err := Generate(Profile{Name: "f", Seed: 3, Methods: 120, SwitchFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range app.Methods {
		if id < NumDrivers {
			continue // drivers call everywhere forward of themselves
		}
		for _, in := range m.Code {
			if in.Op == dex.OpInvoke && int(in.Method) <= id {
				t.Fatalf("m%d calls m%d (not forward)", id, in.Method)
			}
		}
	}
}

func TestHotMethodsMarked(t *testing.T) {
	_, man, err := Generate(Profile{Name: "h", Seed: 5, Methods: 300, HotFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Hot) < 5 || len(man.Hot) > 40 {
		t.Errorf("hot methods = %d for HotFrac 0.05 of 300", len(man.Hot))
	}
}

func TestApps(t *testing.T) {
	apps := Apps(1.0)
	if len(apps) != 6 {
		t.Fatalf("apps = %d", len(apps))
	}
	names := map[string]int{}
	for _, p := range apps {
		names[p.Name] = p.Methods
	}
	// Kuaishou is the largest, Taobao the smallest, per Table 4 baselines.
	for name := range names {
		if names["Kuaishou"] < names[name] || names["Taobao"] > names[name] {
			t.Errorf("size ordering violated at %s: %v", name, names)
		}
	}
	small := Apps(0.05)
	if small[0].Methods >= apps[0].Methods {
		t.Errorf("scaling inert")
	}
	if _, ok := AppByName("Wechat", 0.1); !ok {
		t.Error("AppByName failed")
	}
	if _, ok := AppByName("Nope", 0.1); ok {
		t.Error("AppByName found a ghost")
	}
	if p := Apps(-1); p[0].Methods != apps[0].Methods {
		t.Error("negative scale not defaulted")
	}
}

func TestScript(t *testing.T) {
	_, man, err := Generate(Profile{Name: "s", Seed: 9, Methods: 30})
	if err != nil {
		t.Fatal(err)
	}
	script := Script(man, 20, 1)
	if len(script) != 20*NumDrivers {
		t.Fatalf("script length = %d", len(script))
	}
	s2 := Script(man, 20, 1)
	for i := range script {
		if script[i] != s2[i] {
			t.Fatal("script not deterministic")
		}
	}
	if DriverFor(man) != man.Drivers[0] {
		t.Error("DriverFor mismatch")
	}
}

func TestGenerateRejectsEmpty(t *testing.T) {
	if _, _, err := Generate(Profile{Name: "e"}); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestMultidexLayout(t *testing.T) {
	app, _, err := Generate(Profile{Name: "md", Seed: 2, Methods: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Files) < 2 {
		t.Fatalf("expected multidex, got %d file(s)", len(app.Files))
	}
	total := 0
	for _, f := range app.Files {
		if len(f.Classes) > 16 {
			t.Errorf("file %s has %d classes", f.Name, len(f.Classes))
		}
		for _, c := range f.Classes {
			if len(c.Methods) > 40 {
				t.Errorf("class %s has %d methods", c.Name, len(c.Methods))
			}
			total += len(c.Methods)
		}
	}
	if total != app.NumMethods() {
		t.Errorf("class membership %d != method table %d", total, app.NumMethods())
	}
	if app.Files[0].Name != "classes.dex" || app.Files[1].Name != "classes2.dex" {
		t.Errorf("file names: %s, %s", app.Files[0].Name, app.Files[1].Name)
	}
}

// TestLoadFormatsAndDrivers: Load reads both the dex container and the
// assembly text of one app to the same methods, and takes the leading
// methods, at most three, as drivers.
func TestLoadFormatsAndDrivers(t *testing.T) {
	app, _, err := Generate(Profile{Name: "g", Seed: 3, Methods: 12})
	if err != nil {
		t.Fatal(err)
	}
	container, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	got, man, err := Load(container)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMethods() != app.NumMethods() {
		t.Errorf("container: %d methods, want %d", got.NumMethods(), app.NumMethods())
	}
	if want := []dex.MethodID{0, 1, 2}; !slices.Equal(man.Drivers, want) {
		t.Errorf("container drivers %v, want %v", man.Drivers, want)
	}

	src := `
.app Tiny
.file classes.dex
.class LT
.method only regs=2 ins=1
    return v1
.end method
.end class
.end file
`
	got, man, err = Load([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Tiny" || !slices.Equal(man.Drivers, []dex.MethodID{0}) {
		t.Errorf("text: app %q drivers %v, want Tiny [0]", got.Name, man.Drivers)
	}

	if _, _, err := Load([]byte("dex\ngarbage")); err == nil {
		t.Error("a corrupt container loaded")
	}
}
