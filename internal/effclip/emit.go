package effclip

import (
	"fmt"
	"slices"
	"sort"

	"udp/internal/core"
	"udp/internal/encode"
)

// SegmentWords is the reach of the 12-bit target field: states based within
// the same SegmentWords-aligned region share a code-base (CB) value.
const SegmentWords = 1 << core.TargetBits

// emit encodes the placed program into an Image: it resolves segments,
// prepends SetCB actions to cross-segment transitions, deduplicates and
// places action chains, and writes all machine words.
func (pk *packer) emit() (*Image, error) {
	p := pk.prog
	im := &Image{
		Name:            p.Name,
		EntrySymbolBits: p.SymbolBits,
		DataBase:        p.DataBase,
		DataBytes:       p.DataBytes,
		DataInit:        p.DataInit,
		InitRegs:        p.InitRegs,
		StateBase:       map[string]int{},
		Executable:      true,
		MultiActive:     p.MultiActive,
		StartAlways:     p.StartAlways,
		TransWordBytes:  core.WordBytes,
	}
	if pk.opt.WideAttach {
		im.WideAttach = map[int]int{}
		im.TransWordBytes = 6 // 16 extra bits for a full action pointer
	}
	entry := pk.place[p.Entry]
	im.EntryBase = entry.base
	im.EntryMode = p.Entry.Mode
	for s, pl := range pk.place {
		im.StateBase[s.Name] = pl.base
	}
	nseg := (pk.spanEnd + SegmentWords - 1) / SegmentWords
	if nseg < 1 {
		nseg = 1
	}
	for i := 0; i < nseg; i++ {
		im.Segments = append(im.Segments, i*SegmentWords)
	}

	pad := pk.maxRange
	ab := pk.spanEnd + pad
	im.ActionBase = ab

	al := newActionAlloc(ab)

	// Pre-pass: reserve scaled slots for every distinct refill chain so
	// their 5-bit references stay in range regardless of how many
	// ordinary chains exist.
	for _, s := range p.States {
		for _, t := range s.Labeled {
			if t.Kind != core.KindRefill || len(t.Actions) == 0 {
				continue
			}
			chain, err := pk.finalChain(s, t)
			if err != nil {
				return nil, err
			}
			if _, err := al.placeRefill(chain); err != nil {
				return nil, fmt.Errorf("effclip: program %q: %w", p.Name, err)
			}
		}
	}

	// trans collects every transition word, spilled fork entries included;
	// each address is emitted once.
	type transWord struct {
		addr int
		w    uint32
	}
	var trans []transWord
	emitOne := func(s *core.State, t *core.Transition, addr int, next chainRef) error {
		w, err := pk.encodeTransition(s, t, al, next, im, addr)
		if err != nil {
			return fmt.Errorf("effclip: state %q: %w", s.Name, err)
		}
		trans = append(trans, transWord{addr, w})
		return nil
	}

	for _, s := range p.States {
		pl := pk.place[s]
		// Group same-symbol transitions in declaration order, by symbol.
		bySym := slices.Clone(s.Labeled)
		sort.SliceStable(bySym, func(i, j int) bool { return bySym[i].Symbol < bySym[j].Symbol })
		for len(bySym) > 0 {
			sym := bySym[0].Symbol
			n := 1
			for n < len(bySym) && bySym[n].Symbol == sym {
				n++
			}
			ts := bySym[:n]
			bySym = bySym[n:]
			sortChain(ts)
			slot := pl.base + int(sym)
			if s.Mode == core.ModeCommon {
				slot = pl.base
			}
			addrs, err := pk.forkAddrs(s, slot, len(ts), al)
			if err != nil {
				return nil, fmt.Errorf("effclip: state %q fork chain on symbol %d: %w", s.Name, sym, err)
			}
			for i, t := range ts {
				var next chainRef
				if i+1 < len(ts) {
					next, err = chainRefBetween(addrs[i], addrs[i+1], ab)
					if err != nil {
						return nil, fmt.Errorf("effclip: state %q: %w", s.Name, err)
					}
				}
				if err := emitOne(s, t, addrs[i], next); err != nil {
					return nil, err
				}
			}
		}
		if s.Fallback != nil {
			if err := emitOne(s, s.Fallback, pl.base-1, chainRef{}); err != nil {
				return nil, err
			}
		}
	}

	im.Words = make([]uint32, al.end())
	copy(im.Words[ab:], al.words)
	for _, t := range trans { // fork spills overwrite their reservations
		im.Words[t.addr] = t.w
	}
	im.TransWords = len(trans)
	im.PadWords = pad
	im.ActionWords = al.count

	if im.DataBase == 0 && im.DataBytes > 0 {
		im.DataBase = (im.CodeBytes() + 63) &^ 63
	}
	if pk.opt.Policy == PolicyUAPOffset {
		pk.applyUAPAccounting(im, al)
	}
	return im, nil
}

// sortChain orders same-symbol transitions so epsilon entries come first and
// the at-most-one non-epsilon entry terminates the chain.
func sortChain(ts []*core.Transition) {
	sort.SliceStable(ts, func(i, j int) bool {
		return ts[i].Kind == core.KindEpsilon && ts[j].Kind != core.KindEpsilon
	})
}

// chainRef tells an epsilon entry where its successor lives: direct mode is a
// word delta (1..255), scaled mode addresses an 8-aligned word in the action
// region. The zero value terminates a chain.
type chainRef struct {
	mode core.AttachMode
	val  uint8
}

func chainRefBetween(from, to, ab int) (chainRef, error) {
	if d := to - from; d >= 1 && d <= 255 {
		return chainRef{core.AttachDirect, uint8(d)}, nil
	}
	if to >= ab && (to-ab)%core.ScaledStride == 0 && (to-ab)/core.ScaledStride <= 255 {
		return chainRef{core.AttachScaled, uint8((to - ab) / core.ScaledStride)}, nil
	}
	return chainRef{}, fmt.Errorf("fork continuation at %d unreachable from %d", to, from)
}

// forkAddrs allocates word addresses for a chain of n same-symbol entries
// rooted at slot: continuations prefer free nearby transition words and spill
// contiguously into the action region otherwise.
func (pk *packer) forkAddrs(s *core.State, slot, n int, al *actionAlloc) ([]int, error) {
	addrs := make([]int, 1, n)
	addrs[0] = slot
	for i := 1; i < n; i++ {
		if a, ok := pk.freeWordNear(s, addrs[i-1], al.ab); ok {
			addrs = append(addrs, a)
			continue
		}
		// Spill the rest as one contiguous 8-aligned block.
		rest := n - i
		blk, err := al.allocBlock(rest)
		if err != nil {
			return nil, err
		}
		for k := 0; k < rest; k++ {
			addrs = append(addrs, blk+k)
		}
		break
	}
	return addrs, nil
}

// finalChain builds the action list actually encoded for a transition,
// prepending the SetCB needed by cross-segment targets.
func (pk *packer) finalChain(s *core.State, t *core.Transition) ([]core.Action, error) {
	srcSeg := pk.place[s].base / SegmentWords
	dstSeg := pk.place[t.Target].base / SegmentWords
	if srcSeg == dstSeg {
		return t.Actions, nil
	}
	if t.Kind == core.KindEpsilon {
		return nil, fmt.Errorf("cross-segment epsilon transition to %q unsupported", t.Target.Name)
	}
	chain := make([]core.Action, 0, len(t.Actions)+1)
	chain = append(chain, core.Action{Op: core.OpSetCB, Imm: int32(dstSeg * SegmentWords)})
	chain = append(chain, t.Actions...)
	return chain, nil
}

func (pk *packer) encodeTransition(s *core.State, t *core.Transition, al *actionAlloc, next chainRef, im *Image, slot int) (uint32, error) {
	pl := pk.place[s]
	tgt := pk.place[t.Target]
	et := encode.Transition{
		Sig:      Sig(pl.base),
		Target:   uint16(tgt.base % SegmentWords),
		Kind:     t.Kind,
		NextMode: t.Target.Mode,
	}
	if t.Kind == core.KindEpsilon {
		if len(t.Actions) > 0 {
			return 0, fmt.Errorf("epsilon transition to %q cannot carry actions (attach holds the fork offset)", t.Target.Name)
		}
		et.Attach = next.val
		et.AttachMode = next.mode
		return encode.PutTransition(et)
	}
	if next != (chainRef{}) {
		return 0, fmt.Errorf("non-epsilon transition cannot continue a fork chain")
	}
	chain, err := pk.finalChain(s, t)
	if err != nil {
		return 0, err
	}
	if im.WideAttach != nil {
		if len(chain) > 0 {
			addr, err := al.placeWide(chain)
			if err != nil {
				return 0, err
			}
			im.WideAttach[slot] = addr
		}
		if t.Kind == core.KindRefill {
			et.Attach, err = encode.RefillAttach(t.ConsumedBits, 0)
			if err != nil {
				return 0, err
			}
		}
		return encode.PutTransition(et)
	}
	if t.Kind == core.KindRefill {
		ref := uint8(0)
		if len(chain) > 0 {
			r, err := al.placeRefill(chain)
			if err != nil {
				return 0, err
			}
			ref = r
		}
		et.Attach, err = encode.RefillAttach(t.ConsumedBits, ref)
		if err != nil {
			return 0, err
		}
		et.AttachMode = core.AttachScaled
		return encode.PutTransition(et)
	}
	if len(chain) > 0 {
		mode, attach, err := al.place(chain)
		if err != nil {
			return 0, err
		}
		et.AttachMode = mode
		et.Attach = attach
	}
	return encode.PutTransition(et)
}

// actionAlloc packs deduplicated action chains into the action region.
// Layout: [ab, ab+256) is the direct window (attach 1..255); 8-aligned
// addresses up to ab+2040 are reachable in scaled mode (attach 1..255);
// 8-aligned addresses ab+8..ab+248 are additionally reachable by the 5-bit
// refill reference.
type actionAlloc struct {
	ab int
	// words and used cover the action region from ab up to its highest
	// allocated word; used marks allocated words, fork reservations
	// (still 0) included, and count is how many there are.
	words  []uint32
	used   []bool
	count  int
	chains map[string]int // chain key -> start address
	// cursors
	directNext int
	scaledNext int
}

func newActionAlloc(ab int) *actionAlloc {
	return &actionAlloc{
		ab:         ab,
		chains:     map[string]int{},
		directNext: ab + 1,
		scaledNext: ab + 8,
	}
}

func chainKey(chain []core.Action) string {
	b := make([]byte, 0, len(chain)*12)
	for _, a := range chain {
		b = append(b, byte(a.Op), byte(a.Dst), byte(a.Src), byte(a.Ref),
			byte(a.Imm), byte(a.Imm>>8), byte(a.Imm>>16), byte(a.Imm>>24))
	}
	return string(b)
}

func (al *actionAlloc) encodeAt(addr int, chain []core.Action) error {
	for i, a := range chain {
		w, err := encode.PutAction(a, i == len(chain)-1)
		if err != nil {
			return err
		}
		al.set(addr+i, w)
	}
	return nil
}

// set allocates the action word at addr and stores w in it.
func (al *actionAlloc) set(addr int, w uint32) {
	i := addr - al.ab
	if n := i + 1; n > len(al.used) {
		al.words = append(al.words, make([]uint32, n-len(al.words))...)
		al.used = append(al.used, make([]bool, n-len(al.used))...)
	}
	if !al.used[i] {
		al.used[i] = true
		al.count++
	}
	al.words[i] = w
}

// placeRefill places (or finds) a chain at an 8-aligned refill-reachable
// address and returns its 5-bit reference.
func (al *actionAlloc) placeRefill(chain []core.Action) (uint8, error) {
	key := "r" + chainKey(chain)
	if addr, ok := al.chains[key]; ok {
		return uint8((addr - al.ab) / 8), nil
	}
	addr := al.alignScaled(al.scaledNext)
	for ; ; addr += 8 {
		if !al.rangeUsed(addr, len(chain)) {
			break
		}
	}
	ref := (addr - al.ab) / 8
	if ref > 31 {
		return 0, fmt.Errorf("refill action region overflow (ref %d > 31)", ref)
	}
	if err := al.encodeAt(addr, chain); err != nil {
		return 0, err
	}
	al.chains[key] = addr
	if addr+len(chain) > al.scaledNext {
		al.scaledNext = addr + len(chain)
	}
	return uint8(ref), nil
}

// place places (or finds) a chain and returns the attach mode and value that
// reference it.
func (al *actionAlloc) place(chain []core.Action) (core.AttachMode, uint8, error) {
	key := chainKey(chain)
	if addr, ok := al.chains[key]; ok {
		return al.refTo(addr)
	}
	// Refill copies of the same chain are reusable in scaled mode.
	if addr, ok := al.chains["r"+key]; ok {
		return al.refTo(addr)
	}
	// Prefer the dense direct window.
	addr := al.directNext
	for ; addr+len(chain) <= al.ab+256; addr++ {
		if !al.rangeUsed(addr, len(chain)) {
			if err := al.encodeAt(addr, chain); err != nil {
				return 0, 0, err
			}
			al.chains[key] = addr
			if addr+len(chain) > al.directNext {
				al.directNext = addr + len(chain)
			}
			return core.AttachDirect, uint8(addr - al.ab), nil
		}
	}
	// Fall back to the scaled region.
	saddr := al.alignScaled(al.scaledNext)
	for ; ; saddr += 8 {
		if !al.rangeUsed(saddr, len(chain)) {
			break
		}
	}
	off := (saddr - al.ab) / 8
	if off > 255 {
		return 0, 0, fmt.Errorf("action region overflow (scaled offset %d > 255)", off)
	}
	if err := al.encodeAt(saddr, chain); err != nil {
		return 0, 0, err
	}
	al.chains[key] = saddr
	al.scaledNext = saddr + len(chain)
	return core.AttachScaled, uint8(off), nil
}

// placeWide places (or finds) a chain without attach-field reach limits,
// used by wide-attach images whose transitions carry full action pointers.
func (al *actionAlloc) placeWide(chain []core.Action) (int, error) {
	key := "w" + chainKey(chain)
	if addr, ok := al.chains[key]; ok {
		return addr, nil
	}
	addr := al.scaledNext
	for al.rangeUsed(addr, len(chain)) {
		addr++
	}
	if err := al.encodeAt(addr, chain); err != nil {
		return 0, err
	}
	al.chains[key] = addr
	al.scaledNext = addr + len(chain)
	return addr, nil
}

// allocBlock reserves a contiguous 8-aligned run of n words in the action
// region (used for spilled fork chains); the caller writes the actual words.
func (al *actionAlloc) allocBlock(n int) (int, error) {
	addr := al.alignScaled(al.scaledNext)
	for ; ; addr += 8 {
		if !al.rangeUsed(addr, n) {
			break
		}
	}
	if (addr-al.ab)/core.ScaledStride > 255 {
		return 0, fmt.Errorf("action region overflow (fork block at %d)", addr)
	}
	for i := 0; i < n; i++ {
		al.set(addr+i, 0) // reservation; overwritten by the fork words
	}
	if addr+n > al.scaledNext {
		al.scaledNext = addr + n
	}
	return addr, nil
}

func (al *actionAlloc) refTo(addr int) (core.AttachMode, uint8, error) {
	if d := addr - al.ab; d >= 1 && d <= 255 {
		return core.AttachDirect, uint8(d), nil
	}
	if (addr-al.ab)%8 == 0 && (addr-al.ab)/8 <= 255 {
		return core.AttachScaled, uint8((addr - al.ab) / 8), nil
	}
	return 0, 0, fmt.Errorf("chain at %d unreachable from action base %d", addr, al.ab)
}

// alignScaled rounds addr up to the next 8-aligned offset from the action
// base (scaled attach references are in units of ScaledStride from ab).
func (al *actionAlloc) alignScaled(addr int) int {
	return al.ab + (addr-al.ab+core.ScaledStride-1)&^(core.ScaledStride-1)
}

func (al *actionAlloc) rangeUsed(addr, n int) bool {
	for i := addr - al.ab; i < addr-al.ab+n && i < len(al.used); i++ {
		if al.used[i] {
			return true
		}
	}
	return false
}

// end returns one past the highest allocated action word, and at least
// ab+1. used ends exactly at the highest allocated word.
func (al *actionAlloc) end() int {
	return al.ab + max(1, len(al.used))
}

// applyUAPAccounting recomputes the image size under the UAP's
// transition-relative offset attach addressing (paper Figure 5c): a chain
// must sit within +-127 words of every transition referencing it, so shared
// chains are duplicated once per 254-word neighborhood of referencing
// transitions. The resulting image is size-accounting only.
func (pk *packer) applyUAPAccounting(im *Image, al *actionAlloc) {
	type ref struct {
		addr  int
		chain []core.Action
	}
	var refs []ref
	for _, s := range pk.prog.States {
		pl := pk.place[s]
		for _, t := range s.Labeled {
			if len(t.Actions) > 0 {
				refs = append(refs, ref{pl.base + int(t.Symbol), t.Actions})
			}
		}
		if s.Fallback != nil && len(s.Fallback.Actions) > 0 {
			refs = append(refs, ref{pl.base - 1, s.Fallback.Actions})
		}
	}
	// One copy of a chain serves all references within one 254-word
	// neighborhood.
	copies := map[string]map[int]bool{}
	actionWords := 0
	for _, r := range refs {
		key := chainKey(r.chain)
		bucket := r.addr / 254
		if copies[key] == nil {
			copies[key] = map[int]bool{}
		}
		if !copies[key][bucket] {
			copies[key][bucket] = true
			actionWords += len(r.chain)
		}
	}
	im.ActionWords = actionWords
	im.Words = make([]uint32, pk.spanEnd+im.PadWords+actionWords)
	im.Executable = false
}
