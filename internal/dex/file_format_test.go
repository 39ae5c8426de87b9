package dex

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// richApp extends buildApp with a JNI method, a packed switch and a
// native call, so every instruction encoding appears.
func richApp(t testing.TB) *App {
	app, _ := buildApp()
	cls := app.Files[0].Classes[0]
	app.AddMethod(cls, &Method{Class: cls.Name, Name: "jni", Native: true, NumRegs: 3, NumIns: 2})
	app.AddMethod(cls, &Method{Class: cls.Name, Name: "sw", NumRegs: 2, NumIns: 1, Code: []Insn{
		{Op: OpConst, A: 0, Lit: 7},
		{Op: OpPackedSwitch, A: 1, Targets: []int32{3, 4}},
		{Op: OpReturnVoid},
		{Op: OpConst, A: 0, Lit: -12345},
		{Op: OpInvokeNative, A: 0, Native: NativeLogValue, B: 0, C: 0},
		{Op: OpReturn, A: 0},
	}})
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	return app
}

func TestMarshalRoundTrip(t *testing.T) {
	app := richApp(t)
	data, err := Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("dex\n035\x00")) {
		t.Error("missing dex magic")
	}
	back, err := UnmarshalApp(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != app.Name || len(back.Methods) != len(app.Methods) {
		t.Fatalf("shape mismatch")
	}
	for id := range app.Methods {
		a, b := app.Methods[id], back.Methods[id]
		if a.FullName() != b.FullName() || a.Native != b.Native ||
			a.NumRegs != b.NumRegs || a.NumIns != b.NumIns {
			t.Fatalf("method %d header mismatch", id)
		}
		if !reflect.DeepEqual(a.Pool, b.Pool) {
			t.Fatalf("method %d pool mismatch", id)
		}
		if len(a.Code) != len(b.Code) {
			t.Fatalf("method %d code length mismatch", id)
		}
		for pc := range a.Code {
			x, y := a.Code[pc], b.Code[pc]
			if x.Op != y.Op || x.A != y.A || x.B != y.B || x.C != y.C ||
				x.Lit != y.Lit || x.Target != y.Target || x.Method != y.Method ||
				x.Native != y.Native || !reflect.DeepEqual(x.Targets, y.Targets) {
				t.Fatalf("method %d insn %d mismatch: %v vs %v", id, pc, x, y)
			}
		}
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	app, _ := buildApp()
	app.Methods[1].Code[0].A = 99 // register out of range
	if _, err := Marshal(app); err == nil {
		t.Fatal("invalid app marshaled")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	app, _ := buildApp()
	data, err := Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("dex\n036\x00"), data[8:]...),
		"truncated": data[:len(data)-3],
		"trailing":  append(append([]byte{}, data...), 1, 2, 3),
	}
	for name, d := range cases {
		if _, err := UnmarshalApp(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMarshalRefusesLongNames: a name over the 16-bit length prefix is
// refused with the field named, not truncated; a name at the limit round-
// trips whole.
func TestMarshalRefusesLongNames(t *testing.T) {
	long := strings.Repeat("x", maxNameBytes+6)
	for _, c := range []struct {
		field string
		set   func(*App)
	}{
		{"app name", func(a *App) { a.Name = long }},
		{"file name", func(a *App) { a.Files[0].Name = long }},
		{"class name", func(a *App) { a.Files[0].Classes[0].Name = long }},
		{"method name", func(a *App) { a.Methods[1].Name = long }},
	} {
		app := richApp(t)
		c.set(app)
		_, err := Marshal(app)
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s of %d bytes: Marshal error %v, want one naming the %s",
				c.field, len(long), err, c.field)
		}
	}

	app := richApp(t)
	app.Methods[1].Name = long[:maxNameBytes]
	data, err := Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalApp(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Methods[1].Name != app.Methods[1].Name {
		t.Errorf("name of %d bytes came back as %d bytes", maxNameBytes, len(back.Methods[1].Name))
	}
}

// FuzzUnmarshalApp checks the dex parser never panics, that everything it
// accepts validates, and that the container round-trips: the re-marshalled
// bytes parse back and re-marshal to the same bytes.
func FuzzUnmarshalApp(f *testing.F) {
	for _, app := range []*App{func() *App { a, _ := buildApp(); return a }(), richApp(f)} {
		data, err := Marshal(app)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:12])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		parsed, err := UnmarshalApp(b)
		if err != nil {
			return
		}
		if err := parsed.Validate(); err != nil {
			t.Fatalf("accepted app fails validation: %v", err)
		}
		out, err := Marshal(parsed)
		if err != nil {
			t.Fatalf("accepted app fails to re-marshal: %v", err)
		}
		back, err := UnmarshalApp(out)
		if err != nil {
			t.Fatalf("re-marshalled app does not parse: %v", err)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatalf("re-parsed app fails to marshal: %v", err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("re-marshalling is not stable: %d bytes, then %d", len(out), len(again))
		}
	})
}
