package effclip

import (
	"runtime"
	"testing"

	"udp/internal/core"
	"udp/internal/encode"
)

// buildDFA returns a small 3-state DFA-ish program exercising labeled,
// majority and action chains.
func buildDFA() *core.Program {
	p := core.NewProgram("dfa3", 8)
	s0 := p.AddState("s0", core.ModeStream)
	s1 := p.AddState("s1", core.ModeStream)
	s2 := p.AddState("s2", core.ModeStream)
	s0.On('a', s1)
	s0.On('b', s2, core.AOut8(core.RSym))
	s0.Majority(s0)
	s1.On('a', s1)
	s1.Majority(s0, core.AOut8(core.RSym))
	s2.Majority(s0)
	return p
}

func TestLayoutSmallDFA(t *testing.T) {
	im, err := Layout(buildDFA(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !im.Executable {
		t.Fatal("UDP-policy image must be executable")
	}
	if im.TransWords != 6 {
		t.Fatalf("TransWords = %d, want 6", im.TransWords)
	}
	if len(im.Segments) != 1 {
		t.Fatalf("small program must fit one segment, got %d", len(im.Segments))
	}
	if im.EntryBase != im.StateBase["s0"] {
		t.Fatal("entry base mismatch")
	}
	// The two identical empty chains share; the two identical Out8 chains
	// share: expect exactly 1 action word.
	if im.ActionWords != 1 {
		t.Fatalf("ActionWords = %d, want 1 (dedup)", im.ActionWords)
	}
}

func TestLayoutSlotContents(t *testing.T) {
	p := buildDFA()
	im, err := Layout(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b0 := im.StateBase["s0"]
	w := im.Words[b0+'a']
	if encode.EmptySlot(w) {
		t.Fatal("slot for s0/'a' is empty")
	}
	tr := encode.GetTransition(w)
	if tr.Sig != Sig(b0) {
		t.Fatalf("slot sig %d, want %d", tr.Sig, Sig(b0))
	}
	if int(tr.Target) != im.StateBase["s1"] {
		t.Fatalf("target %d, want s1 at %d", tr.Target, im.StateBase["s1"])
	}
	fb := im.Words[b0-1]
	if encode.GetTransition(fb).Kind != core.KindMajority {
		t.Fatal("fallback word must be the majority transition")
	}
}

// TestSignatureSafety verifies the core EffCLiP invariant on a crowded
// program: no state's probe range contains a foreign word with its own
// signature.
func TestSignatureSafety(t *testing.T) {
	p := core.NewProgram("crowd", 8)
	states := make([]*core.State, 0, 80)
	for i := 0; i < 80; i++ {
		states = append(states, p.AddState(name(i), core.ModeStream))
	}
	for i, s := range states {
		// Sparse, varied slot patterns force interleaving.
		for k := 0; k < i%7+1; k++ {
			s.On(uint32((i*37+k*11)%256), states[(i+k+1)%len(states)])
		}
		if i%3 == 0 {
			s.Majority(states[(i+5)%len(states)])
		}
	}
	im, err := Layout(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Recover word ownership from state bases and slots.
	owner := map[int]int{}
	for i, s := range states {
		b := im.StateBase[s.Name]
		for _, tr := range s.Labeled {
			owner[b+int(tr.Symbol)] = i
		}
		if s.Fallback != nil {
			owner[b-1] = i
		}
	}
	for i, s := range states {
		b := im.StateBase[s.Name]
		for off := 0; off < 256; off++ {
			w := im.Words[b+off]
			if encode.EmptySlot(w) {
				continue
			}
			oi, ok := owner[b+off]
			if !ok {
				continue // fork word or action pad, not reachable here
			}
			if oi != i && Sig(im.StateBase[states[oi].Name]) == Sig(b) {
				t.Fatalf("state %d probe range contains foreign word of state %d with same signature", i, oi)
			}
		}
	}
}

func name(i int) string { return string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func TestLayoutDataPlacement(t *testing.T) {
	p := buildDFA()
	p.DataBytes = 128
	im, err := Layout(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if im.DataBase < im.CodeBytes() {
		t.Fatalf("auto data base %d overlaps code (%d bytes)", im.DataBase, im.CodeBytes())
	}
	if im.Banks() != 1 {
		t.Fatalf("tiny program should fit one bank, got %d", im.Banks())
	}

	p2 := buildDFA()
	p2.DataBytes = 128
	p2.DataBase = 4 // collides with code
	if _, err := Layout(p2, Options{}); err == nil {
		t.Fatal("expected overlap error")
	}
}

func TestLayoutRefillProgram(t *testing.T) {
	p := core.NewProgram("huff", 2)
	root := p.AddState("root", core.ModeStream)
	root.OnRefill(0, 1, root, core.AMovi(core.R1, 'x'), core.AOut8(core.R1))
	root.OnRefill(1, 1, root, core.AMovi(core.R1, 'x'), core.AOut8(core.R1))
	root.On(2, root, core.AMovi(core.R1, 'y'), core.AOut8(core.R1))
	root.On(3, root, core.AMovi(core.R1, 'z'), core.AOut8(core.R1))
	im, err := Layout(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := im.StateBase["root"]
	tr := encode.GetTransition(im.Words[b+0])
	if tr.Kind != core.KindRefill {
		t.Fatalf("slot 0 kind = %v", tr.Kind)
	}
	consumed, ref := encode.SplitRefillAttach(tr.Attach)
	if consumed != 1 || ref == 0 {
		t.Fatalf("refill attach: consumed=%d ref=%d", consumed, ref)
	}
	// Identical refill chains must share one block.
	tr1 := encode.GetTransition(im.Words[b+1])
	_, ref1 := encode.SplitRefillAttach(tr1.Attach)
	if ref1 != ref {
		t.Fatalf("identical refill chains not shared: %d vs %d", ref, ref1)
	}
}

func TestLayoutMultiSegment(t *testing.T) {
	// Enough 8-bit states to exceed one 4096-word target window.
	p := core.NewProgram("big", 8)
	n := 40
	states := make([]*core.State, n)
	for i := range states {
		states[i] = p.AddState(name(i), core.ModeStream)
	}
	for i, s := range states {
		for sym := 0; sym < 200; sym++ {
			s.On(uint32(sym), states[(i+sym)%n])
		}
		s.Majority(states[(i+1)%n])
	}
	im, err := Layout(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(im.Segments) < 2 {
		t.Fatalf("expected multiple segments, got %d (trans words %d)", len(im.Segments), im.TransWords)
	}
	if im.TransWords != n*201 {
		t.Fatalf("TransWords = %d, want %d", im.TransWords, n*201)
	}
}

func TestUAPOffsetAccountingBigger(t *testing.T) {
	// Many states sharing one action chain: UDP shares a single block,
	// UAP duplicates per neighborhood.
	p := core.NewProgram("shared", 8)
	var states []*core.State
	for i := 0; i < 60; i++ {
		states = append(states, p.AddState(name(i), core.ModeStream))
	}
	for i, s := range states {
		for sym := 0; sym < 60; sym++ {
			s.On(uint32(sym), states[(i+1)%len(states)], core.AOut8(core.RSym), core.AAddi(core.R1, core.R1, 1))
		}
	}
	udp, err := Layout(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uap, err := Layout(p, Options{Policy: PolicyUAPOffset})
	if err != nil {
		t.Fatal(err)
	}
	if uap.Executable {
		t.Fatal("UAP accounting image must be non-executable")
	}
	if uap.ActionWords <= udp.ActionWords {
		t.Fatalf("UAP action words (%d) should exceed UDP's (%d)", uap.ActionWords, udp.ActionWords)
	}
}

func TestLayoutDeterminism(t *testing.T) {
	a, err := Layout(buildDFA(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Layout(buildDFA(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Words) != len(b.Words) {
		t.Fatal("nondeterministic layout size")
	}
	for i := range a.Words {
		if a.Words[i] != b.Words[i] {
			t.Fatalf("nondeterministic word at %d", i)
		}
	}
}

func TestChainRefBetween(t *testing.T) {
	if r, err := chainRefBetween(10, 15, 1000); err != nil || r.mode != 0 || r.val != 5 {
		t.Fatalf("direct ref: %+v %v", r, err)
	}
	if r, err := chainRefBetween(10, 1016, 1000); err != nil || r.val != 2 {
		t.Fatalf("scaled ref: %+v %v", r, err)
	}
	if _, err := chainRefBetween(10, 999, 1000); err == nil {
		t.Fatal("unreachable continuation must error")
	}
	if _, err := chainRefBetween(10, 1001, 1000); err == nil {
		t.Fatal("unaligned scaled continuation must error")
	}
}

func TestLayoutRejectsEpsilonActions(t *testing.T) {
	p := core.NewProgram("bad", 8)
	a := p.AddState("a", core.ModeStream)
	b := p.AddState("b", core.ModeStream)
	a.OnEpsilon('x', b, core.AOut8(core.RSym))
	a.OnEpsilon('x', a)
	b.Majority(b)
	p.MultiActive = true
	if _, err := Layout(p, Options{}); err == nil {
		t.Fatal("epsilon with actions must be rejected")
	}
}

// TestWideStateRejectedEarly checks that a state whose probe window cannot
// fit the lane window is rejected before layout allocates or scans anything
// in proportion to that window: a 32-bit state would otherwise ask for a
// 2^31-word image.
func TestWideStateRejectedEarly(t *testing.T) {
	for _, bits := range []uint8{24, 32} {
		for _, opt := range []Options{{}, {WideAttach: true}, {Policy: PolicyUAPOffset}} {
			p := core.NewProgram("wide", bits)
			s := p.AddState("s", core.ModeStream)
			s.On(1, s)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Layout(p, opt)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d-bit state %+v: layout accepted a program wider than the lane window", bits, opt)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
				t.Fatalf("%d-bit state %+v: rejection allocated %d bytes, want < 1 MiB", bits, opt, d)
			}
		}
	}
}
