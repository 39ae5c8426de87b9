package workload

import (
	"bytes"
	"math/rand"

	"repro/internal/dex"
)

// The six applications of the paper's test set (§4.1, Table 3), scaled
// ~1:220 from their baseline OAT text sizes (Table 4: Toutiao 357M,
// Taobao 225M, Fanqie 264M, Meituan 247M, Kuaishou 612M, WeChat 388M).
// Method counts are proportional to those sizes, so inter-app ratios are
// preserved even though absolute sizes are laptop-scale.
var appSpecs = []struct {
	name    string
	methods int
	seed    int64
}{
	{"Toutiao", 1600, 101},
	{"Taobao", 1010, 102},
	{"Fanqie", 1190, 103},
	{"Meituan", 1110, 104},
	{"Kuaishou", 2750, 105},
	{"Wechat", 1750, 106},
}

// Apps returns the six benchmark app profiles at the given scale factor
// (1.0 = full ~1:220 reproduction scale; smaller values shrink method
// counts proportionally for quick runs). Scale values <= 0 default to 1.
func Apps(scale float64) []Profile {
	if scale <= 0 {
		scale = 1
	}
	out := make([]Profile, 0, len(appSpecs))
	for _, s := range appSpecs {
		n := int(float64(s.methods) * scale)
		if n < 20 {
			n = 20
		}
		out = append(out, Profile{
			Name:    s.name,
			Seed:    s.seed,
			Methods: n,
			// Rates common to the suite; chosen so the per-method pattern
			// frequencies track the paper's Figure 4 measurements.
			NativeFrac: 0.03,
			SwitchFrac: 0.05,
			HotFrac:    0.03,
		})
	}
	return out
}

// AppByName returns the profile with the given name at the given scale.
// Beyond the six paper apps it also resolves "Obfuscated", the
// adversarial high-redundancy variant (see update.go), which is kept out
// of Apps so the experiment tables stay the paper's test set.
func AppByName(name string, scale float64) (Profile, bool) {
	for _, p := range Apps(scale) {
		if p.Name == name {
			return p, true
		}
	}
	if p := obfuscatedProfile(scale); p.Name == name {
		return p, true
	}
	return Profile{}, false
}

// Load parses an app supplied as a file rather than generated: a
// serialized dex container (recognized by its "dex\n" prefix) or the
// smali-like assembly text. Such an app carries no manifest, so its
// leading methods — up to the generator's driver count, fewer for small
// hand-written apps — stand in as the activity drivers.
func Load(data []byte) (*dex.App, *Manifest, error) {
	var app *dex.App
	var err error
	if bytes.HasPrefix(data, []byte("dex\n")) {
		app, err = dex.UnmarshalApp(data)
	} else {
		app, err = dex.ParseText(string(data))
	}
	if err != nil {
		return nil, nil, err
	}
	man := &Manifest{}
	for i := 0; i < min(numDrivers, app.NumMethods()); i++ {
		man.Drivers = append(man.Drivers, dex.MethodID(i))
	}
	return app, man, nil
}

// Run is one scripted operation: invoke an entry method with arguments
// (one step of the uiautomator-script stand-in).
type Run struct {
	Entry dex.MethodID
	Args  [2]int64
}

// Script produces the scripted operation sequence the memory and
// performance experiments execute (the uiautomator stand-in, §4.3/§4.5):
// `rounds` passes over the app's activities with varying arguments.
func Script(man *Manifest, rounds int, seed int64) []Run {
	r := rand.New(rand.NewSource(seed))
	var script []Run
	for round := 0; round < rounds; round++ {
		for _, d := range man.Drivers {
			script = append(script, Run{
				Entry: d,
				Args:  [2]int64{int64(r.Intn(256)), int64(r.Intn(12))},
			})
		}
	}
	return script
}

// DriverFor is a convenience for examples: the app's first activity.
func DriverFor(man *Manifest) dex.MethodID { return man.Drivers[0] }
