package effclip_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"udp/internal/asm"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/xmlparse"
)

// goldenPrograms are the server's builtin kernels plus two NIDS rule sets
// (12 and 24 rules), the latter read from assembly in testdata because
// building them from patterns takes seconds.
var goldenPrograms = []struct {
	name  string
	build func() (*core.Program, error)
}{
	{"echo", func() (*core.Program, error) {
		p := core.NewProgram("echo", 8)
		s := p.AddState("s", core.ModeStream)
		s.Majority(s, core.AOut8(core.RSym))
		return p, nil
	}},
	{"csvparse", func() (*core.Program, error) { return csvparse.BuildProgram(), nil }},
	{"csvpipe", func() (*core.Program, error) { return csvparse.BuildProgramSep('|'), nil }},
	{"jsonparse", func() (*core.Program, error) { return jsonparse.BuildProgram(), nil }},
	{"xmlparse", func() (*core.Program, error) { return xmlparse.BuildProgram(), nil }},
	{"histogram16", func() (*core.Program, error) {
		return histogram.BuildProgramEmit(histogram.UniformEdges(16, 0, 1))
	}},
	{"nids12", func() (*core.Program, error) { return loadAsm("nids12.udpasm") }},
	{"nids24", func() (*core.Program, error) { return loadAsm("nids24.udpasm") }},
}

var goldenOptions = []struct {
	name string
	opt  effclip.Options
}{
	{"default", effclip.Options{}},
	{"wide", effclip.Options{WideAttach: true}},
	{"uap", effclip.Options{Policy: effclip.PolicyUAPOffset}},
}

// goldenDigests pins the SHA-256 of every layout, keyed program/options.
// Placement is deterministic first-fit-decreasing; any change to these
// digests changes the images the machine runs.
var goldenDigests = map[string]string{
	"echo/default":        "19af2fe9236d30e4607c856dcdfaae7c6d47e96343964fa122f9442586c88735",
	"echo/wide":           "ea222a89df064c218479ea36afeb1fe6c30ba8829b47106bb53e4eea9e64b4c1",
	"echo/uap":            "8abf138342071e3b366f048a4c99d57cc3cb9aa38b91d7feb37f896fc679a471",
	"csvparse/default":    "2d1cb6c8237ee1caba83c2751d4e9c2c519d2704acff6b7eb160f10d5c8d52dd",
	"csvparse/wide":       "a5d5106a79ebc8c2d964923f893dacb71a9db66e2e8a385b7cda23e44aaf2a64",
	"csvparse/uap":        "67ce8400b9e86e84eda7e747ed6a6cf495fa7bbd4583b933f03c4f4bda9307a6",
	"csvpipe/default":     "af9ff68483105a9b77b45c8768add0bc59f4bf6e7e33fedcf89125ed39041dbe",
	"csvpipe/wide":        "a0c4b620ce10697b4e45e9dceea8f6ef0247b4d74683025c7d284c9c285cf310",
	"csvpipe/uap":         "ba3c0a70e2558e48ccb074eeb2702a7eee1350550a85f1117b98e8d14edaa09e",
	"jsonparse/default":   "cdece314b80f0811e5499b86c1ce2b50589144c6e860be4a3df53d48546a70e3",
	"jsonparse/wide":      "7ac409082203114a2401ac97f72f79e7975cff0fe4e2e817ac6c42266c2fb14b",
	"jsonparse/uap":       "ccca7daffaa8187833eea0a60fa4192d3ba3e6b25adc038d7af1d28d8ef89aa6",
	"xmlparse/default":    "46a65a989266b5c1cb9e25b3da0fca5e57baf39e63fd14ad30343dc885b89c79",
	"xmlparse/wide":       "01842c924326a32113e7a14d4f8924c2e5c918ec9cedc555550e5e015a77b7bd",
	"xmlparse/uap":        "287679d04ca2f594ef48372ee99131a68359a6f9dd589c09710def9aaac16929",
	"histogram16/default": "8f858cb37127017ecf3826a4866e4ed23233de9090907d6c2f7cb11234a13d08",
	"histogram16/wide":    "482dcdc2c88f2661aec8b87869a137d4670ab464b723886975c04f892b728792",
	"histogram16/uap":     "57412b62dfa8d3b2e51c533ce6aa9841f66fc30aeeb1fdcf2428ea9a1b0c826a",
	"nids12/default":      "adf3663e7f1bd43eb708c9c22f24677442924fdab2005a30058eb4c3170b1c03",
	"nids12/wide":         "1c3b997f146c72c1d8883abc6a9c119bacb296c2d9a61d2e7b45ee5a6ab4878c",
	"nids12/uap":          "26650d89011cc689e6cdb47d3547475284646c877cb97a2008426c07cc1973b2",
	"nids24/default":      "a043605c24d6076b2478765ce831a93edbd38aff4f673a550bb757c08c19385e",
	"nids24/wide":         "12c269e861291e8464427e6e43283bceb23f678e3884fd3db7ebc6b256413ebe",
	"nids24/uap":          "c11553698ee2dcb90c31a42381cac160c1601e717ca20a84bf830726672f4527",
}

func loadAsm(file string) (*core.Program, error) {
	b, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		return nil, err
	}
	return asm.Parse(string(b))
}

// imageDigest hashes every layout-determined field of an image: the code
// words, the region bases and sizes, the state bases, the segments and the
// wide-attach pointers (maps in sorted key order).
func imageDigest(im *effclip.Image) string {
	h := sha256.New()
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
			h.Write(b[:])
		}
	}
	put(len(im.Words))
	for _, w := range im.Words {
		put(int(w))
	}
	put(im.ActionBase, im.EntryBase, int(im.EntryMode), im.TransWords, im.PadWords, im.ActionWords)
	names := make([]string, 0, len(im.StateBase))
	for n := range im.StateBase {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		put(im.StateBase[n])
	}
	put(len(im.Segments))
	put(im.Segments...)
	addrs := make([]int, 0, len(im.WideAttach))
	for a := range im.WideAttach {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	put(len(addrs))
	for _, a := range addrs {
		put(a, im.WideAttach[a])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenImages checks that layout is byte-identical to the pinned
// images for the builtin kernels and two NIDS sets under each option set.
func TestGoldenImages(t *testing.T) {
	for _, gp := range goldenPrograms {
		for _, o := range goldenOptions {
			key := gp.name + "/" + o.name
			p, err := gp.build()
			if err != nil {
				t.Fatalf("%s: build: %v", key, err)
			}
			im, err := effclip.Layout(p, o.opt)
			if err != nil {
				t.Fatalf("%s: layout: %v", key, err)
			}
			if got, want := imageDigest(im), goldenDigests[key]; got != want {
				t.Errorf("%s: image digest %s, want %s", key, got, want)
			}
		}
	}
}

// TestWordLimitExact checks that the word limit rejects exactly the images
// that exceed it: under each option set, each program lays out unchanged
// under a limit equal to its image size and is rejected one word below it.
// Besides the golden programs it covers two action-free programs, whose UAP
// accounting image is only the span and the guard pad: one whose span is a
// single fallback word (the smallest image placement can produce) and one
// with a few labeled transitions.
func TestWordLimitExact(t *testing.T) {
	type prog struct {
		name  string
		build func() (*core.Program, error)
	}
	progs := []prog{
		{"fallback-only", func() (*core.Program, error) {
			p := core.NewProgram("fallback-only", 8)
			s := p.AddState("s", core.ModeStream)
			s.Default(s)
			return p, nil
		}},
		{"no-actions", func() (*core.Program, error) {
			p := core.NewProgram("no-actions", 8)
			a := p.AddState("a", core.ModeStream)
			b := p.AddState("b", core.ModeStream)
			a.On('x', b)
			a.On('y', a)
			b.On('x', a)
			b.Default(b)
			return p, nil
		}},
	}
	for _, gp := range goldenPrograms {
		progs = append(progs, prog{gp.name, gp.build})
	}
	for _, gp := range progs {
		for _, o := range goldenOptions {
			key := gp.name + "/" + o.name
			p, err := gp.build()
			if err != nil {
				t.Fatalf("%s: build: %v", key, err)
			}
			im, err := effclip.Layout(p, o.opt)
			if err != nil {
				t.Fatalf("%s: layout: %v", key, err)
			}
			n := len(im.Words)
			opt := o.opt
			opt.MaxWords = n
			at, err := effclip.Layout(p, opt)
			if err != nil {
				t.Fatalf("%s: rejected at its own size %d: %v", key, n, err)
			}
			if imageDigest(at) != imageDigest(im) {
				t.Fatalf("%s: limit %d changed the image", key, n)
			}
			opt.MaxWords = n - 1
			if _, err := effclip.Layout(p, opt); err == nil {
				t.Fatalf("%s: accepted under limit %d, image has %d words", key, n-1, n)
			}
		}
	}
}

// BenchmarkLayout times EffCLiP placement and emit alone (program building
// and assembly parsing excluded) on the two NIDS sets and two builtins.
func BenchmarkLayout(b *testing.B) {
	for _, name := range []string{"nids24", "nids12", "histogram16", "csvparse"} {
		b.Run(name, func(b *testing.B) {
			var p *core.Program
			for _, gp := range goldenPrograms {
				if gp.name == name {
					var err error
					if p, err = gp.build(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := effclip.Layout(p, effclip.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
