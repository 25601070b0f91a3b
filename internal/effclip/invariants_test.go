package effclip

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"udp/internal/core"
	"udp/internal/encode"
)

// randomProgram builds a random program over 2- to 16-bit symbols: stream
// states with labeled transitions, epsilon fork chains, fallbacks and action
// chains, plus some common-mode states.
func randomProgram(rng *rand.Rand) *core.Program {
	bits := []uint8{2, 3, 4, 8, 12, 16}[rng.Intn(6)]
	p := core.NewProgram("rand", bits)
	n := 2 + rng.Intn(20)
	states := make([]*core.State, n)
	for i := range states {
		mode := core.ModeStream
		if i > 0 && rng.Intn(6) == 0 {
			mode = core.ModeCommon
		}
		states[i] = p.AddState(stateName(i), mode)
	}
	for _, s := range states {
		if s.Mode == core.ModeCommon {
			s.Common(states[rng.Intn(n)], core.AOut8(core.RSym))
			continue
		}
		rangeMax := 1 << bits
		// Up to 2^bits draws keeps 2- to 8-bit states as dense as a full
		// byte alphabet. Wide states draw at most 64 symbols: every word
		// within reach of a wide state's slot lies in its own probe window,
		// so each of its fork chains spills into the action region, and a
		// few hundred spills overflow its 256 scaled slots.
		draws := rangeMax
		if bits > 8 {
			draws = 64
		}
		used := map[uint32]bool{}
		for k, stop := 0, rng.Intn(draws); k < stop; k++ {
			sym := uint32(rng.Intn(rangeMax))
			if used[sym] {
				continue
			}
			used[sym] = true
			if rng.Intn(5) == 0 {
				// An epsilon fork chain, optionally ended by a labeled
				// transition on the same symbol.
				for e := 1 + rng.Intn(3); e > 0; e-- {
					s.OnEpsilon(sym, states[rng.Intn(n)])
				}
				if rng.Intn(2) == 0 {
					continue
				}
			}
			var acts []core.Action
			if rng.Intn(3) == 0 {
				acts = append(acts, core.AAddi(core.R1, core.R1, int32(rng.Intn(100))))
			}
			if rng.Intn(4) == 0 {
				acts = append(acts, core.AOut8(core.RSym))
			}
			s.On(sym, states[rng.Intn(n)], acts...)
		}
		switch rng.Intn(3) {
		case 0:
			s.Majority(states[rng.Intn(n)])
		case 1:
			s.Default(states[rng.Intn(n)])
		}
	}
	return p
}

func stateName(i int) string {
	return string([]byte{'s', byte('A' + i/26), byte('a' + i%26)})
}

// checkPlacement checks EffCLiP's two safety properties directly on an
// executable image of p:
//
//  1. Every declared transition's word sits at base+symbol (base for a
//     common state, base-1 for the fallback) or down its fork chain, with
//     the owner's signature, the declared kind and the correct target base.
//  2. No non-empty word inside a state's probe window ([base-1,
//     base+2^bits)) carries the state's signature unless it is one of the
//     state's own dispatch slots. Fork-chain continuations count as foreign:
//     a probe that reached one would take it as a dispatch slot.
func checkPlacement(t testing.TB, p *core.Program, im *Image) {
	t.Helper()
	word := func(s *core.State, addr int, tr *core.Transition) encode.Transition {
		t.Helper()
		b := im.StateBase[s.Name]
		if addr < 0 || addr >= len(im.Words) || encode.EmptySlot(im.Words[addr]) {
			t.Fatalf("%s: transition word at %d missing", s.Name, addr)
		}
		et := encode.GetTransition(im.Words[addr])
		if et.Sig != Sig(b) {
			t.Fatalf("%s: word %d sig %d want %d", s.Name, addr, et.Sig, Sig(b))
		}
		if et.Kind != tr.Kind {
			t.Fatalf("%s: word %d kind %v want %v", s.Name, addr, et.Kind, tr.Kind)
		}
		if want := im.StateBase[tr.Target.Name] % SegmentWords; int(et.Target) != want {
			t.Fatalf("%s: word %d target %d want %d", s.Name, addr, et.Target, want)
		}
		return et
	}
	for _, s := range p.States {
		b := im.StateBase[s.Name]
		bySym := map[uint32][]*core.Transition{}
		for _, tr := range s.Labeled {
			bySym[tr.Symbol] = append(bySym[tr.Symbol], tr)
		}
		for sym, ts := range bySym {
			sortChain(ts)
			addr := b + int(sym)
			if s.Mode == core.ModeCommon {
				addr = b
			}
			// Dispatch slots lie below the action region; only spilled
			// fork continuations may sit in it.
			if addr >= im.ActionBase {
				t.Fatalf("%s: slot %d at or past action base %d", s.Name, addr, im.ActionBase)
			}
			for i, tr := range ts {
				et := word(s, addr, tr)
				if i+1 == len(ts) {
					break
				}
				if et.AttachMode == core.AttachDirect {
					addr += int(et.Attach)
				} else {
					addr = im.ActionBase + int(et.Attach)*core.ScaledStride
				}
			}
		}
		if s.Fallback != nil {
			word(s, b-1, s.Fallback)
		}
	}

	for _, s := range p.States {
		b := im.StateBase[s.Name]
		sig := Sig(b)
		mine := map[int]bool{}
		if s.Fallback != nil {
			mine[b-1] = true
		}
		rangeLen := 1
		if s.Mode == core.ModeCommon {
			mine[b] = true
		} else {
			rangeLen = 1 << p.EffSymbolBits(s)
			for _, tr := range s.Labeled {
				mine[b+int(tr.Symbol)] = true
			}
		}
		for addr := max(b-1, 0); addr < b+rangeLen && addr < len(im.Words); addr++ {
			if mine[addr] || encode.EmptySlot(im.Words[addr]) {
				continue
			}
			if encode.GetTransition(im.Words[addr]).Sig == sig {
				t.Fatalf("state %s (base %d) can false-match foreign word at %d", s.Name, b, addr)
			}
		}
	}
}

// TestPlacementInvariants checks both safety properties on the images of
// random programs.
func TestPlacementInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(20171014))
	for trial := 0; trial < 150; trial++ {
		p := randomProgram(rng)
		im, err := Layout(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkPlacement(t, p, im)
	}
}

// byteSource is a rand.Source that replays fuzzer bytes (zeros once they
// run out), so the fuzzer's mutations steer the generated program.
type byteSource []byte

func (s *byteSource) Int63() int64 {
	var b [8]byte
	n := copy(b[:], *s)
	*s = (*s)[n:]
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzLayout lays out random programs driven by the fuzzer's bytes, in the
// default and wide-attach forms, and checks both safety properties on every
// image that layout accepts. Layout may reject a program (a cross-segment
// fork, an overfull action region) but must not panic or place it unsafely.
func FuzzLayout(f *testing.F) {
	seed := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 256)
		seed.Read(b)
		f.Add(b, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		src := byteSource(data)
		p := randomProgram(rand.New(&src))
		im, err := Layout(p, Options{WideAttach: wide})
		if err != nil {
			return
		}
		checkPlacement(t, p, im)
	})
}
