// Package effclip implements the Efficient Coupled Linear Packing (EffCLiP)
// layout algorithm (paper Section 3.2.1 and TR-2015-03): it places every
// state's multi-way dispatch slots into a dense shared word array so that the
// dispatch address computation is a plain integer addition (base + symbol),
// with gaps in one state's target range filled by other states' actual
// transition words. An always-valid signature check detects probes that land
// on a foreign or empty word.
//
// In this implementation a state's signature is derived from its base
// address, sig(B) = 1 + (B mod NumSignatures-1), so the lane never needs to
// be told the signature of the state it enters; EffCLiP guarantees during
// placement that any foreign transition word reachable by a state's probes
// has a different signature. Signature 0 marks empty words.
//
// The packer also lays out the action region (deduplicating identical action
// chains, addressed in direct or scaled-offset attach mode), assigns segments
// for programs whose transition span exceeds the 12-bit target reach
// (emitting SetCB actions on cross-segment transitions), and produces the
// final encoded Image the machine executes.
package effclip

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"

	"udp/internal/core"
)

// Sig returns the signature of a state placed at base address b.
func Sig(b int) uint8 { return uint8(1 + b%(core.NumSignatures-1)) }

// AttachPolicy selects the action-addressing architecture being laid out,
// used by the Figure 5c code-size comparison.
type AttachPolicy int

const (
	// PolicyUDP uses the UDP's direct + scaled-offset attach modes with
	// global chain sharing (the paper's design).
	PolicyUDP AttachPolicy = iota
	// PolicyUAPOffset models the UAP's transition-relative offset attach:
	// an action chain must lie within +-127 words of the transition that
	// references it, forcing duplication of shared blocks.
	PolicyUAPOffset
)

// Options configures the layout.
type Options struct {
	// Policy is the attach addressing policy (default PolicyUDP).
	Policy AttachPolicy
	// MaxWords caps the total image size in words; 0 means the lane
	// window limit implied by the program's declared DataBase (or the
	// full local memory when unset).
	MaxWords int
	// WideAttach lays the image out with full-width action pointers per
	// transition instead of the 8-bit attach field (see Image.WideAttach).
	WideAttach bool
}

// Image is the loadable machine form of a program: encoded words plus the
// loader configuration the machine needs.
type Image struct {
	// Name is the source program name.
	Name string
	// Words is the code image: transition region, guard pad, then the
	// action region.
	Words []uint32
	// ActionBase is the word offset of the action region (the lane's AB
	// configuration constant).
	ActionBase int
	// EntryBase is the absolute word address of the entry state.
	EntryBase int
	// EntryMode is the entry state's dispatch mode.
	EntryMode core.DispatchMode
	// EntrySymbolBits is the initial symbol-size register value.
	EntrySymbolBits uint8
	// DataBase is the byte offset of the scratch data region within the
	// lane window.
	DataBase int
	// DataBytes is the size of the scratch region.
	DataBytes int
	// DataInit holds initialization payloads keyed by offset relative to
	// DataBase.
	DataInit map[int][]byte
	// InitRegs presets scalar registers at lane start.
	InitRegs map[core.Reg]uint32

	// TransWords, PadWords and ActionWords break down len(Words).
	TransWords, PadWords, ActionWords int
	// StateBase maps state names to absolute word addresses (diagnostics
	// and tests).
	StateBase map[string]int
	// Segments lists the segment base word addresses (index 0 is always
	// 0); programs that fit one target window have exactly one.
	Segments []int
	// Executable is false for size-accounting-only layouts (the UAP
	// offset-addressing policy of Figure 5c).
	Executable bool
	// MultiActive mirrors Program.MultiActive: NFA-style frontier
	// execution with silent deactivation on dispatch miss.
	MultiActive bool
	// StartAlways mirrors Program.StartAlways.
	StartAlways bool
	// WideAttach, when non-nil, maps transition word addresses directly
	// to action chain addresses, modeling design points whose transition
	// encoding carries a full-width action pointer (the UAP's unrolled
	// SsF and the SsT per-transition-width variants of Figure 8). Such
	// images pay TransWordBytes > 4 in the size accounting.
	WideAttach map[int]int
	// TransWordBytes is the encoded size of one transition word (4 for
	// the UDP's 32-bit format; 6 for wide-attach variants).
	TransWordBytes int

	// decoded is the lazily-built predecoded code cache (see decode.go),
	// shared read-only by every lane executing this image.
	decodeOnce sync.Once
	decoded    *Decoded

	// compiled is the lazily-built compiled-tier form of the image,
	// stored opaquely so the dependency stays one-way (internal/compile
	// imports effclip, not the reverse). See CompiledForm.
	compileOnce sync.Once
	compiled    any
}

// CompiledForm memoizes an engine-specific compiled form of the image:
// build runs at most once per image and the result — opaque to effclip —
// is shared read-only by every lane. internal/compile stores its lowered
// program (or the reason the image is ineligible) here, exactly as
// Decoded memoizes the predecoded cache.
func (im *Image) CompiledForm(build func() any) any {
	im.compileOnce.Do(func() { im.compiled = build() })
	return im.compiled
}

// CodeBytes returns the byte size of the encoded code image, accounting for
// wider transition words in wide-attach variants.
func (im *Image) CodeBytes() int {
	extra := 0
	if im.TransWordBytes > core.WordBytes {
		extra = im.TransWords * (im.TransWordBytes - core.WordBytes)
	}
	return len(im.Words)*core.WordBytes + extra
}

// FootprintBytes returns the per-lane memory footprint: code plus scratch
// data, accounting for their placement.
func (im *Image) FootprintBytes() int {
	f := im.CodeBytes()
	if d := im.DataBase + im.DataBytes; d > f {
		f = d
	}
	return f
}

// Banks returns the number of 16 KB banks the footprint occupies.
func (im *Image) Banks() int {
	b := (im.FootprintBytes() + core.BankBytes - 1) / core.BankBytes
	if b < 1 {
		b = 1
	}
	return b
}

// placed tracks one placed state during packing.
type placed struct {
	state *core.State
	base  int
	// rangeLen is the probe range (2^symbolBits), 1 for common mode.
	rangeLen int
}

// The packer keeps its per-word state in dense arrays indexed by word
// address, grown on demand and never past the image word limit: placement
// asks "is this word free" and "does any word in this window carry
// signature x" once per word of every candidate base, so these must be
// plain loads and byte scans, not hash lookups.
type packer struct {
	prog *core.Program
	opt  Options
	// limit is the image size cap in words: Options.MaxWords, else the
	// lane window below DataBase or the whole local memory.
	limit int

	// sig holds, per transition-region word, the signature of the state
	// that owns it (fork-chain continuations included); 0 marks a free
	// word.
	sig []uint8
	// baseUsed marks the words already taken as some state's base.
	baseUsed []bool
	// byBase is kept sorted by base for range-cover queries.
	byBase   []*placed
	place    map[*core.State]*placed
	maxRange int
	spanEnd  int // one past the highest occupied transition word
}

// Layout runs EffCLiP on a validated program and returns its image.
func Layout(p *core.Program, opt Options) (*Image, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	limit := opt.MaxWords
	if limit == 0 {
		limit = core.LocalMemBytes / core.WordBytes
		if p.DataBase > 0 {
			limit = p.DataBase / core.WordBytes
		}
	}
	pk := &packer{prog: p, opt: opt, limit: limit, place: map[*core.State]*placed{}}
	if err := pk.placeStates(); err != nil {
		return nil, err
	}
	im, err := pk.emit()
	if err != nil {
		return nil, err
	}
	if len(im.Words) > pk.limit {
		return nil, fmt.Errorf("effclip: program %q needs %d words, limit %d",
			p.Name, len(im.Words), pk.limit)
	}
	if p.DataBase > 0 && p.DataBase < im.CodeBytes() {
		return nil, fmt.Errorf("effclip: program %q data base %d overlaps code (%d bytes)",
			p.Name, p.DataBase, im.CodeBytes())
	}
	return im, nil
}

// stateRange returns the probe range length of a state.
func (pk *packer) stateRange(s *core.State) int {
	if s.Mode == core.ModeCommon {
		return 1
	}
	bits := pk.prog.EffSymbolBits(s)
	if bits >= 31 {
		return 1 << 31
	}
	return 1 << bits
}

// slotOffsets returns the relative offsets occupied by the state's primary
// words: one per distinct dispatch symbol plus -1 for a fallback. Fork-chain
// continuation words are allocated separately.
func slotOffsets(s *core.State) []int {
	offs := make([]int, 0, len(s.Labeled)+1)
	if s.Mode == core.ModeCommon {
		offs = append(offs, 0)
	} else {
		for _, t := range s.Labeled {
			offs = append(offs, int(t.Symbol))
		}
	}
	if s.Fallback != nil {
		offs = append(offs, -1)
	}
	sort.Ints(offs)
	return slices.Compact(offs) // fork chains share their head slot
}

func (pk *packer) placeStates() error {
	type work struct {
		s    *core.State
		offs []int
	}
	ws := make([]work, 0, len(pk.prog.States))
	minSpan := 0 // any placed word makes the transition span at least 1
	for _, s := range pk.prog.States {
		w := work{s, slotOffsets(s)}
		ws = append(ws, w)
		if len(w.offs) > 0 {
			minSpan = 1
		}
		if r := pk.stateRange(s); r > pk.maxRange {
			pk.maxRange = r
		}
	}
	// The image holds the span, a guard pad of maxRange words and, when
	// executable, at least one action word (the UAP accounting counts only
	// the chains it duplicates): a state wider than the lane window is
	// rejected here, before placement scans or allocates anything in
	// proportion to it.
	need := minSpan + pk.maxRange
	if pk.opt.Policy != PolicyUAPOffset {
		need++
	}
	if need > pk.limit {
		return fmt.Errorf("effclip: program %q needs at least %d words, limit %d",
			pk.prog.Name, need, pk.limit)
	}
	// First-fit decreasing by slot count, then by creation order for
	// determinism.
	sort.SliceStable(ws, func(i, j int) bool { return len(ws[i].offs) > len(ws[j].offs) })

	for _, w := range ws {
		if err := pk.placeOne(w.s, w.offs); err != nil {
			return err
		}
	}
	return nil
}

// growTo extends the per-word arrays to cover addresses below n.
func (pk *packer) growTo(n int) {
	if n > len(pk.sig) {
		pk.sig = append(pk.sig, make([]uint8, n-len(pk.sig))...)
		pk.baseUsed = append(pk.baseUsed, make([]bool, n-len(pk.baseUsed))...)
	}
}

func (pk *packer) placeOne(s *core.State, offs []int) error {
	rng := pk.stateRange(s)
	hiOff := 0 // highest word offset from base the state occupies
	if len(offs) > 0 && offs[len(offs)-1] > 0 {
		hiOff = offs[len(offs)-1]
	}
	base := 1 // keep word 0 free so base-1 is always addressable
	for !pk.fits(base, offs, rng) {
		base++
		// A base whose lowest slot is taken cannot fit: jump to the next
		// free word. Every base skipped fails the same slot check.
		if len(offs) > 0 {
			if a := base + offs[0]; a < len(pk.sig) && pk.sig[a] != 0 {
				if i := bytes.IndexByte(pk.sig[a:], 0); i >= 0 {
					base += i
				} else {
					base += len(pk.sig) - a
				}
			}
		}
		// A word at or past the limit would make the image too large.
		if base > 1<<22 || base+hiOff >= pk.limit {
			return fmt.Errorf("effclip: cannot place state %q", s.Name)
		}
	}
	pk.growTo(base + hiOff + 1)
	pk.baseUsed[base] = true
	sig := Sig(base)
	for _, o := range offs {
		pk.sig[base+o] = sig
	}
	if len(offs) > 0 && base+offs[len(offs)-1]+1 > pk.spanEnd {
		pk.spanEnd = base + offs[len(offs)-1] + 1
	}
	pl := &placed{state: s, base: base, rangeLen: rng}
	pk.place[s] = pl
	i := sort.Search(len(pk.byBase), func(i int) bool { return pk.byBase[i].base >= base })
	pk.byBase = append(pk.byBase, nil)
	copy(pk.byBase[i+1:], pk.byBase[i:])
	pk.byBase[i] = pl
	return nil
}

// fits checks slot freedom and both directions of the signature-collision
// constraint for placing a state with slot offsets offs and probe range rng
// at base.
func (pk *packer) fits(base int, offs []int, rng int) bool {
	if base < len(pk.baseUsed) && pk.baseUsed[base] {
		// Bases are unique per state: the lane frontier and the target
		// field both identify states by base address.
		return false
	}
	sig := Sig(base)
	for _, o := range offs {
		if addr := base + o; addr < len(pk.sig) && pk.sig[addr] != 0 {
			return false
		}
	}
	// Direction 1: foreign words inside the probe range must not share the
	// state's signature. Probes cover [base, base+rng) and the fallback
	// word at base-1. The state owns no word yet, so every owned word in
	// the window is foreign and one byte scan decides.
	if lo := base - 1; lo < len(pk.sig) {
		if bytes.IndexByte(pk.sig[lo:min(base+rng, len(pk.sig))], sig) >= 0 {
			return false
		}
	}
	// Direction 2: the state's own words must not fall inside the probe
	// range of a differently-based state with the same signature.
	lo := base - pk.maxRangePlaced()
	hi := base + rng
	i := sort.Search(len(pk.byBase), func(i int) bool { return pk.byBase[i].base >= lo })
	for ; i < len(pk.byBase) && pk.byBase[i].base < hi; i++ {
		p := pk.byBase[i]
		if Sig(p.base) != sig || p.base == base {
			continue
		}
		for _, o := range offs {
			addr := base + o
			if addr >= p.base-1 && addr < p.base+p.rangeLen {
				return false
			}
		}
	}
	return true
}

func (pk *packer) maxRangePlaced() int {
	if pk.maxRange < 2 {
		return 2
	}
	return pk.maxRange + 1
}

// freeWordNear finds a free word in (from, min(from+255, limit)) whose
// occupation by state s does not violate the signature constraint against
// covering states. It reports ok=false when none exists (the caller then
// spills the fork chain into the action region).
func (pk *packer) freeWordNear(s *core.State, from, limit int) (int, bool) {
	own := pk.place[s]
	sig := Sig(own.base)
	hi := from + (1 << core.AttachBits) - 1
	if hi >= limit {
		hi = limit - 1
	}
	for addr := from + 1; addr <= hi; addr++ {
		if addr < len(pk.sig) && pk.sig[addr] != 0 {
			continue
		}
		// The owner's own probes must not be able to reach a fork
		// continuation: it carries the owner's signature and would be
		// taken as a dispatch slot.
		if addr >= own.base-1 && addr < own.base+own.rangeLen {
			continue
		}
		ok := true
		lo := addr - pk.maxRangePlaced()
		i := sort.Search(len(pk.byBase), func(i int) bool { return pk.byBase[i].base >= lo })
		for ; i < len(pk.byBase) && pk.byBase[i].base <= addr+1; i++ {
			p := pk.byBase[i]
			if p.state != s && Sig(p.base) == sig &&
				addr >= p.base-1 && addr < p.base+p.rangeLen {
				ok = false
				break
			}
		}
		if ok {
			pk.growTo(addr + 1)
			pk.sig[addr] = sig
			return addr, true
		}
	}
	return 0, false
}
