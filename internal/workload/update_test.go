package workload

import (
	"fmt"
	"testing"

	"repro/internal/dex"
)

// sameCode reports whether two methods have identical bodies.
func sameCode(a, b *dex.Method) bool {
	if a.Native != b.Native || len(a.Code) != len(b.Code) {
		return false
	}
	for i := range a.Code {
		x, y := a.Code[i], b.Code[i]
		if x.Op != y.Op || x.A != y.A || x.B != y.B || x.C != y.C ||
			x.Lit != y.Lit || x.Method != y.Method || x.Native != y.Native ||
			x.Target != y.Target || len(x.Targets) != len(y.Targets) {
			return false
		}
		for j := range x.Targets {
			if x.Targets[j] != y.Targets[j] {
				return false
			}
		}
	}
	return true
}

// TestUpdateDelta: version V+1 regenerates roughly ChangedFrac of the
// methods and leaves every other method byte-identical — the property
// the serving cache's partial warm hits depend on.
func TestUpdateDelta(t *testing.T) {
	base, ok := AppByName("Taobao", 0.1)
	if !ok {
		t.Fatal("no Taobao profile")
	}
	const delta = 0.2
	v1, _, err := Generate(Update(base, 1, delta))
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := Generate(Update(base, 2, delta))
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Methods) != len(v2.Methods) {
		t.Fatalf("method count changed across versions: %d vs %d",
			len(v1.Methods), len(v2.Methods))
	}
	changed := 0
	for i := NumDrivers; i < len(v1.Methods); i++ {
		if !sameCode(v1.Methods[i], v2.Methods[i]) {
			changed++
		}
	}
	regular := len(v1.Methods) - NumDrivers
	frac := float64(changed) / float64(regular)
	// One version step redraws ~delta of the methods; allow generous
	// sampling slack either way, but reject "everything changed" (the
	// single-stream cascade bug this mode exists to avoid) and "nothing
	// changed".
	if frac < delta/3 || frac > 2*delta {
		t.Errorf("changed fraction %.3f (%d/%d), want ~%.2f", frac, changed, regular, delta)
	}
	for _, app := range []*dex.App{v1, v2} {
		if err := app.Validate(); err != nil {
			t.Fatalf("update app invalid: %v", err)
		}
	}
}

// TestUpdateDeterministic: the same (version, delta) regenerates the
// same app.
func TestUpdateDeterministic(t *testing.T) {
	base, _ := AppByName("Fanqie", 0.05)
	a, _, err := Generate(Update(base, 3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(Update(base, 3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Methods {
		if !sameCode(a.Methods[i], b.Methods[i]) {
			t.Fatalf("method %d differs between identical generations", i)
		}
	}
}

// windowDupFrac measures dex-level redundancy: the fraction of 4-insn
// windows whose rendering occurs more than once across the app.
func windowDupFrac(app *dex.App) float64 {
	const w = 4
	seen := map[string]int{}
	total := 0
	for _, m := range app.Methods {
		for i := 0; i+w <= len(m.Code); i++ {
			key := fmt.Sprint(m.Code[i : i+w])
			seen[key]++
			total++
		}
	}
	dup := 0
	for _, c := range seen {
		if c > 1 {
			dup += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dup) / float64(total)
}

// TestObfuscatedProfile: the adversarial profile resolves by name, stays
// out of the paper's six-app set, and is measurably more redundant than
// a regular app at the same scale.
func TestObfuscatedProfile(t *testing.T) {
	for _, p := range Apps(0.1) {
		if p.Name == "Obfuscated" {
			t.Fatal("Obfuscated leaked into the paper app set")
		}
	}
	op, ok := AppByName("Obfuscated", 0.1)
	if !ok {
		t.Fatal("AppByName does not resolve Obfuscated")
	}
	obf, _, err := Generate(op)
	if err != nil {
		t.Fatal(err)
	}
	if err := obf.Validate(); err != nil {
		t.Fatalf("obfuscated app invalid: %v", err)
	}
	tp, _ := AppByName("Taobao", 0.1)
	reg, _, err := Generate(tp)
	if err != nil {
		t.Fatal(err)
	}
	of, rf := windowDupFrac(obf), windowDupFrac(reg)
	if of <= rf {
		t.Errorf("obfuscated redundancy %.3f not above regular %.3f", of, rf)
	}
}
