package codegen_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/workload"
)

// keyApp is the fixed app the key-stability tests hash. Everything here
// is seeded, so the generated bytecode — and therefore the keys — are
// stable across runs and platforms.
func keyApp(t testing.TB) *dex.App {
	t.Helper()
	app, _, err := workload.Generate(workload.Profile{
		Name: "keyfix", Seed: 77, Methods: 30,
		NativeFrac: 0.1, SwitchFrac: 0.1, HotFrac: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestCacheKeyStability pins the key schema with a golden hash. If this
// test fails, the key layout changed: that is only acceptable together
// with a cacheSchema version bump (which changes every key, including
// this one — update the golden then). Silent drift is the failure mode
// being guarded: it would poison every on-disk cache in the field by
// serving entries computed under the old schema.
func TestCacheKeyStability(t *testing.T) {
	app := keyApp(t)
	opts := codegen.Options{CTO: true, Optimize: true}
	got := codegen.CacheKey(app.Methods[0], app.Methods, opts).String()
	const golden = "b21fdc1bd18d9d040bb5a097aed67863f9a92e380a9525e0ef080e49d751f28b"
	if got != golden {
		t.Errorf("key schema drifted:\n got  %s\n want %s\n(bump cacheSchema and update the golden if this is intentional)", got, golden)
	}
}

// TestCacheKeyKnobs flips every codegen.Options knob that changes emitted
// words and checks each flip changes the key; the knobs excluded by the
// determinism contract must not.
func TestCacheKeyKnobs(t *testing.T) {
	app := keyApp(t)
	m := app.Methods[0]
	base := codegen.CacheKey(m, app.Methods, codegen.Options{CTO: true, Optimize: true})

	flips := []struct {
		name string
		opts codegen.Options
	}{
		{"CTO off", codegen.Options{CTO: false, Optimize: true}},
		{"Optimize off", codegen.Options{CTO: true, Optimize: false}},
		{"both off", codegen.Options{}},
	}
	seen := map[string]string{base.String(): "base"}
	for _, f := range flips {
		k := codegen.CacheKey(m, app.Methods, f.opts).String()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", f.name, prev)
		}
		seen[k] = f.name
	}

	// Scheduling/observation knobs must NOT change the key.
	same := codegen.CacheKey(m, app.Methods, codegen.Options{CTO: true, Optimize: true, Workers: 8})
	if same != base {
		t.Error("Workers changed the key; it must affect scheduling only")
	}
}

// TestCacheKeyContent checks the key tracks every content input: the
// method's own bytecode and pool, and the signature of an invoked callee
// (whose change does not alter the caller's bytecode at all).
func TestCacheKeyContent(t *testing.T) {
	app := keyApp(t)
	opts := codegen.Options{CTO: true, Optimize: true}

	// Find a method that invokes someone.
	var caller *dex.Method
	var calleeID dex.MethodID
	for _, m := range app.Methods {
		for _, in := range m.Code {
			if in.Op == dex.OpInvoke {
				caller, calleeID = m, in.Method
				break
			}
		}
		if caller != nil {
			break
		}
	}
	if caller == nil {
		t.Fatal("generated app has no invoke site")
	}
	base := codegen.CacheKey(caller, app.Methods, opts)

	// Mutating the callee's signature must invalidate the caller.
	callee := app.Methods[calleeID]
	origName := callee.Name
	callee.Name = origName + "_renamed"
	if codegen.CacheKey(caller, app.Methods, opts) == base {
		t.Error("callee rename did not change the caller's key")
	}
	callee.Name = origName

	// Mutating the caller's own code must invalidate it.
	origLit := caller.Code[0].Lit
	caller.Code[0].Lit++
	if codegen.CacheKey(caller, app.Methods, opts) == base {
		t.Error("bytecode change did not change the key")
	}
	caller.Code[0].Lit = origLit

	if len(caller.Pool) > 0 {
		caller.Pool[0]++
		if codegen.CacheKey(caller, app.Methods, opts) == base {
			t.Error("pool change did not change the key")
		}
		caller.Pool[0]--
	}

	// Restored state hashes back to the original key.
	if codegen.CacheKey(caller, app.Methods, opts) != base {
		t.Error("restored method does not reproduce its key")
	}
}

// TestCachedMethodRoundTrip encodes and decodes every method of the key
// app and requires full structural equality, plus byte-for-byte canonical
// re-encoding.
func TestCachedMethodRoundTrip(t *testing.T) {
	app := keyApp(t)
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range methods {
		payload := codegen.EncodeCachedMethod(cm)
		back, err := codegen.DecodeCachedMethod(cm.M, payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", cm.M.FullName(), err)
		}
		if !reflect.DeepEqual(normalize(cm), normalize(back)) {
			t.Fatalf("%s: round trip not structurally equal", cm.M.FullName())
		}
		if again := codegen.EncodeCachedMethod(back); !bytes.Equal(again, payload) {
			t.Fatalf("%s: codec not canonical (%d vs %d bytes)", cm.M.FullName(), len(again), len(payload))
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares content, not
// the nil/empty distinction (which nothing downstream observes).
func normalize(cm *codegen.CompiledMethod) *codegen.CompiledMethod {
	c := *cm
	if len(c.Code) == 0 {
		c.Code = nil
	}
	if len(c.Meta.PCRel) == 0 {
		c.Meta.PCRel = nil
	}
	if len(c.Meta.Terminators) == 0 {
		c.Meta.Terminators = nil
	}
	if len(c.Meta.EmbeddedData) == 0 {
		c.Meta.EmbeddedData = nil
	}
	if len(c.Meta.Slowpaths) == 0 {
		c.Meta.Slowpaths = nil
	}
	if len(c.StackMap) == 0 {
		c.StackMap = nil
	}
	if len(c.Ext) == 0 {
		c.Ext = nil
	}
	return &c
}

// TestDecodeCachedMethodRobust feeds damaged payloads to the decoder; it
// must return errors, never panic, and never accept trailing garbage.
func TestDecodeCachedMethodRobust(t *testing.T) {
	app := keyApp(t)
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	good := codegen.EncodeCachedMethod(methods[0])
	m := methods[0].M

	for cut := 0; cut < len(good); cut += 3 {
		if _, err := codegen.DecodeCachedMethod(m, good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if _, err := codegen.DecodeCachedMethod(m, append(append([]byte(nil), good...), 0, 0, 0, 0)); err == nil {
		t.Fatal("trailing bytes decoded")
	}
	skew := append([]byte(nil), good...)
	skew[0]++ // bump the entry version word
	if _, err := codegen.DecodeCachedMethod(m, skew); err == nil {
		t.Fatal("version-skewed entry decoded")
	}
}
