package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dex"
)

var updateLoadPin = flag.Bool("update", false, "rewrite testdata/load_pin.golden")

// marshalProfile generates p and serializes it as a dex container.
func marshalProfile(tb testing.TB, p Profile) []byte {
	tb.Helper()
	app, _, err := Generate(p)
	if err != nil {
		tb.Fatalf("%s: %v", p.Name, err)
	}
	data, err := dex.Marshal(app)
	if err != nil {
		tb.Fatalf("%s: %v", p.Name, err)
	}
	return data
}

// pinPayload is the small dex payload whose prefixes and byte flips the
// pin feeds to Load: a few methods with switches, JNI stubs and pools,
// so truncations and flips land in every part of the container format.
func pinPayload(tb testing.TB) []byte {
	return marshalProfile(tb, Profile{
		Name: "Pin", Seed: 11, Methods: 5,
		NativeFrac: 0.2, SwitchFrac: 0.6, HotFrac: 0.2,
		MotifPool: 4, MotifsPerM: 2, CallSitesPerM: 1, FillerPerMotif: 1,
	})
}

// countWriter builds a dex container by hand, so a count field can say
// more than the bytes behind it hold.
type countWriter []byte

func (w *countWriter) str(s string) {
	*w = binary.LittleEndian.AppendUint16(*w, uint16(len(s)))
	*w = append(*w, s...)
}
func (w *countWriter) u(v uint64) { *w = binary.AppendUvarint(*w, v) }

// methodHead writes one file holding one class holding one method with
// one register, up to and including the method's native flag.
func methodHead() countWriter {
	w := countWriter("dex\n035\x00")
	w.str("a")
	w.u(1)
	w.str("f")
	w.u(1)
	w.str("c")
	w.u(1)
	w.str("m")
	w.u(0) // id
	w.u(1) // NumRegs
	w.u(0) // NumIns
	w = append(w, 0)
	return w
}

// inflatedInputs are bodies of at most 64 bytes whose pool, code or
// switch count is plausible by itself but cannot fit in the bytes left.
func inflatedInputs() []struct {
	name string
	data []byte
} {
	code := methodHead()
	code.u(0)         // pool
	code.u(1<<26 - 1) // code
	code = append(code, byte(dex.OpReturnVoid), 0, 0, 0)

	pool := methodHead()
	pool.u(1 << 24)
	pool.u(7)
	pool.u(9)

	sw := methodHead()
	sw.u(0) // pool
	sw.u(2) // code
	sw = append(sw, byte(dex.OpPackedSwitch), 0, 0, 0)
	sw.u(1 << 16)
	for i := 0; i < 4; i++ {
		sw = binary.AppendVarint(sw, 1)
	}
	return []struct {
		name string
		data []byte
	}{{"ncode", code}, {"npool", pool}, {"nswitch", sw}}
}

// TestLoadPin pins Load's verdict on a fixed input set: accept or refuse,
// and for an accepted input the SHA-256 of the re-marshalled app. The
// inputs are the six ladder apps and Obfuscated at scale 0.05 (versions
// 0, 1 and 7), the hand-written text app, every prefix of a small
// payload, 500 fixed-seed byte flips of it, and three count inflations.
// A decoder change must keep every verdict and every accepted app.
// Regenerate (deliberately) with `go test ./internal/workload -run
// TestLoadPin -update`.
func TestLoadPin(t *testing.T) {
	var sb strings.Builder
	verdict := func(data []byte) string {
		app, _, err := Load(data)
		if err != nil {
			return "refuse"
		}
		out, err := dex.Marshal(app)
		if err != nil {
			t.Fatalf("accepted app does not marshal: %v", err)
		}
		sum := sha256.Sum256(out)
		return "accept " + hex.EncodeToString(sum[:])
	}

	profs := Apps(0.05)
	obf, _ := AppByName("Obfuscated", 0.05)
	for _, p := range append(profs, obf) {
		for _, v := range []int{0, 1, 7} {
			q := p
			if v > 0 {
				q = Update(p, v, 0.10)
			}
			fmt.Fprintf(&sb, "app %s v%d %s\n", p.Name, v, verdict(marshalProfile(t, q)))
		}
	}

	text, err := os.ReadFile(filepath.Join("..", "..", "cmd", "calibro", "testdata", "textapp.s"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "text textapp.s %s\n", verdict(text))

	small := pinPayload(t)
	fmt.Fprintf(&sb, "small %d bytes %s\n", len(small), verdict(small))
	// Prefixes as runs of equal verdicts.
	from, last := 0, verdict(small[:0])
	for n := 1; n <= len(small); n++ {
		v := ""
		if n < len(small) {
			v = verdict(small[:n])
		}
		if v != last {
			fmt.Fprintf(&sb, "prefix %d-%d %s\n", from, n-1, last)
			from, last = n, v
		}
	}

	r := rand.New(rand.NewSource(27))
	for i := 0; i < 500; i++ {
		off, x := r.Intn(len(small)), byte(1+r.Intn(255))
		b := append([]byte(nil), small...)
		b[off] ^= x
		fmt.Fprintf(&sb, "flip %d off=%d xor=%#02x %s\n", i, off, x, verdict(b))
	}

	for _, in := range inflatedInputs() {
		fmt.Fprintf(&sb, "inflate %s %d bytes %s\n", in.name, len(in.data), verdict(in.data))
	}

	golden := filepath.Join("testdata", "load_pin.golden")
	if *updateLoadPin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("load pin differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("load pin has %d lines, golden %d", len(gl), len(wl))
	}
}

// TestLoadRefusesInflatedCountsCheaply: a count that cannot fit in the
// bytes behind it is refused without allocating for it.
func TestLoadRefusesInflatedCountsCheaply(t *testing.T) {
	for _, in := range inflatedInputs() {
		if len(in.data) > 64 {
			t.Fatalf("%s: body is %d bytes, want at most 64", in.name, len(in.data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Load(in.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", in.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: refused after allocating %d bytes, want under 1 MB", in.name, d)
		}
	}
}

// serveUpdatePayloads are the dex payloads of serve-update's first pass:
// version 1 of each ladder app at scale 0.05.
func serveUpdatePayloads(tb testing.TB) [][]byte {
	var out [][]byte
	for _, p := range Apps(0.05) {
		out = append(out, marshalProfile(tb, Update(p, 1, 0.10)))
	}
	return out
}

// TestValidateAllocsPerMethod: the verifier allocates at most once per
// method plus a constant, never once per instruction.
func TestValidateAllocsPerMethod(t *testing.T) {
	for _, data := range serveUpdatePayloads(t) {
		app, _, err := Load(data)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := app.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(app.NumMethods() + 16); allocs > limit {
			t.Errorf("%s: Validate made %.0f allocations for %d methods, want at most %.0f",
				app.Name, allocs, app.NumMethods(), limit)
		}
	}
}

// BenchmarkLoad is the dex ingest kernel of a served build job: Load
// (parse and verify) on the six serve-update payloads per iteration.
func BenchmarkLoad(b *testing.B) {
	payloads := serveUpdatePayloads(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, data := range payloads {
			if _, _, err := Load(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}
