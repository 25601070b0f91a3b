// The compiled execution tier: a single direct-threaded loop over the
// lowered program from internal/compile. It is the production-mode
// counterpart of runSingle + dispatchDecoded + execAction, with the
// per-dispatch interpretation overhead compiled out:
//
//   - dispatch, signature validation, refill put-back and the action chain
//     run fused in one loop body — no per-hop or per-action function calls;
//   - next-state base and signature come precomputed from the compiled
//     slot, eliminating the interpreter's per-transition Sig() modulo;
//   - fused chains charge their cycle and action counts in one static bulk
//     add and execute as flat micro-ops (execOps, the one micro-op
//     executor), with the dominant single-op chains (field-byte echo,
//     separator emission) specialized past the micro-op loop entirely;
//   - the hot counters (cycles, dispatches, actions, stream bits, output
//     bytes, probe and hop counts), the stream cursor, the livelock
//     watermark and the machine position (base, signature, mode) live in
//     locals, synced to the lane only at observation boundaries: traps,
//     slow chains, interpreter hand-offs and run exit;
//   - a fast horizon (runHorizon) commits runs of common dispatches with
//     no per-dispatch guards: it sizes each run so that no budget,
//     livelock, stop-poll, input-end or hop-limit check inside it could
//     fire, and settles the counters that move in lockstep with the
//     dispatch count once at its end.
//
// Everything observable is bit-identical with the reference interpreter:
// the same budget, livelock and interrupt outcomes at the same dispatch,
// the same trace-ring writes, the same stats at every trap, and the same
// degradation ladder — a probe outside the compiled image finishes its
// dispatch on the memory path, and a store into the code window hands the
// rest of the run to the interpreter loop, exactly as the decoded tier
// falls back today. The differential harness (diff_test.go) enforces this
// over every kernel, trap, cycle budget and self-modification case.
package machine

import (
	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/fault"
)

// syncCompiled writes the compiled loop's locally-held state back to the
// lane at an observation boundary: traps (trapf reads l.stats.Cycles and
// l.base), the interpreter's action machinery, and run exit. It is a plain
// method on purpose — a closure over the loop locals would make them
// addressable and push them out of registers.
func (l *Lane) syncCompiled(
	cycles, dispatches, actions, streamBits, outBytes,
	fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN uint64,
	pos int64, out []byte, base int, baseSig uint8, mode core.DispatchMode,
	ring *[fault.TraceTail]fault.TraceEntry,
) {
	l.stats.Cycles = cycles
	l.stats.Dispatches = dispatches
	l.stats.Actions = actions
	l.stats.StreamBits = streamBits
	l.stats.OutBytes = outBytes
	l.stats.FallbackProbes = fallbackProbes
	l.stats.DefaultHops = defaultHops
	l.progressMark = progressMark
	l.stall = stall
	l.stopCheck = stopCheck
	l.stream.pos = pos
	l.out = out
	l.base = base
	l.baseSig = baseSig
	l.mode = mode
	// Flush the loop's stack-resident trace-ring entries written since the
	// last boundary; positions line up because the local ring continues the
	// global entry numbering.
	if k := ringN - l.ringN; k > 0 {
		if k > fault.TraceTail {
			k = fault.TraceTail
		}
		for i := ringN - k; i < ringN; i++ {
			l.ring[i%fault.TraceTail] = ring[i%fault.TraceTail]
		}
		l.ringN = ringN
	}
}

// runCompiled executes the compiled tier until the stream is exhausted, a
// Halt executes, or maxCycles elapse. See the package comment above for the
// contract with the reference interpreter.
func (l *Lane) runCompiled(maxCycles uint64) error {
	cp := l.comp
	slots := cp.Slots
	stream := l.stream
	data := stream.data
	regs := &l.regs

	cycles := l.stats.Cycles
	dispatches := l.stats.Dispatches
	actions := l.stats.Actions
	streamBits := l.stats.StreamBits
	outBytes := l.stats.OutBytes
	fallbackProbes := l.stats.FallbackProbes
	defaultHops := l.stats.DefaultHops
	progressMark := l.progressMark
	stall := l.stall
	stopCheck := l.stopCheck
	ringN := l.ringN
	var lring [fault.TraceTail]fault.TraceEntry
	ss := l.ss
	pos := stream.pos
	out := l.out
	base := l.base
	baseSig := l.baseSig
	mode := l.mode
	window := l.livelockWindow
	if window == 0 {
		window = DefaultLivelockWindow
	}
	// Mirrors of lane state only the interpreter's machinery can change;
	// reloaded after every excursion onto it (fused chains cannot touch
	// them).
	halted := l.halted
	decOK := l.decOK
	memRefs := l.stats.MemRefs
	maxCost := cp.MaxCost
	dataBits := int64(len(data)) * 8

	for !halted {
		// Fast horizon: commit the run of dispatches no guard below can
		// stop — n of them, bounded by the symbols left, the cycle budget
		// at MaxCost per dispatch and the next stop poll. The first
		// dispatch it cannot commit falls through, untouched, to the exact
		// path. See docs/PERF.md, "Fast horizon".
		if (ss == 8 || ss == 4) && pos&int64(ss-1) == 0 && pos < dataBits && decOK &&
			mode <= core.ModeCommon && uint64(pos)+outBytes+memRefs > progressMark && cycles < maxCycles {
			n := uint64(dataBits-pos) / uint64(ss)
			if l.stop != nil {
				n = min(n, interruptStride-1-stopCheck%interruptStride)
			}
			if left := maxCycles - cycles; n*maxCost > left {
				n = left / maxCost
			}
			h := horizon{cycles: cycles, fallbackProbes: fallbackProbes, pos: pos, out: out, base: base, baseSig: baseSig, mode: mode}
			if k, lastOut := l.runHorizon(&h, n, &lring, ringN); k > 0 {
				// Settle the counters that move in lockstep with the
				// dispatch count. Every cycle past the probes is an
				// action; every output byte counts, and the last
				// dispatch's livelock check saw the position before it.
				actions += h.cycles - cycles - k - (h.fallbackProbes - fallbackProbes)
				outBytes += uint64(len(h.out) - len(out))
				cycles, fallbackProbes, pos, out = h.cycles, h.fallbackProbes, h.pos, h.out
				base, baseSig, mode = h.base, h.baseSig, h.mode
				dispatches += k
				ringN += k
				streamBits += k * uint64(ss)
				if l.stop != nil {
					stopCheck += k
				}
				progressMark = uint64(pos-int64(ss)) + outBytes - uint64(len(out)-lastOut) + memRefs
				stall = 0
			}
		}

		if cycles >= maxCycles {
			l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
			return l.trapf(fault.TrapCycleBudget, "exceeded %d-cycle budget", maxCycles)
		}
		// Livelock watermark (checkProgress, on the local counters).
		p := uint64(pos) + outBytes + memRefs
		if p > progressMark {
			progressMark = p
			stall = 0
		} else {
			stall++
			if stall > window {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return l.trapf(fault.TrapEpsilonLoop,
					"no forward progress across %d dispatches (self-dispatch or putback livelock)", window)
			}
		}
		// Cooperative interruption (interrupted, inlined).
		if l.stop != nil {
			stopCheck++
			if stopCheck%interruptStride == 0 && l.stop.Load() {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return ErrInterrupted
			}
		}

		var sym uint32
		switch mode {
		case core.ModeStream, core.ModeCommon:
			if ss == 8 && pos&7 == 0 {
				// Aligned byte symbols: the overwhelmingly common case.
				idx := pos >> 3
				if idx >= int64(len(data)) {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return nil // input consumed
				}
				sym = uint32(data[idx])
				pos += 8
			} else {
				if pos+int64(ss) > int64(len(data))*8 {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return nil // input consumed
				}
				stream.pos = pos
				sym = stream.Take(ss)
				pos = stream.pos
			}
			streamBits += uint64(ss)
		default: // core.ModeFlagged
			sym = regs[core.R0]
		}

	dispatch:
		for hop := 0; ; hop++ {
			if hop > 256 {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return l.trapf(fault.TrapEpsilonLoop, "default-transition loop at base %d", base)
			}
			slot := base + int(sym)
			if mode == core.ModeCommon {
				slot = base
			}
			if uint(slot) >= uint(len(slots)) || !decOK {
				// The probe leaves the compiled image, or a store just
				// invalidated the caches: finish this dispatch on the
				// memory path (charging nothing for the hop yet, exactly
				// like the decoded tier's delegation).
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				if err := l.dispatchMem(sym, hop); err != nil {
					return err
				}
				if !l.decOK || l.cb != 0 {
					// Self-modified code, or an out-of-image chain moved
					// the code base: the precomputed tables no longer
					// apply. The interpreter loop finishes the run.
					return l.runSingle(maxCycles)
				}
				cycles, dispatches = l.stats.Cycles, l.stats.Dispatches
				actions, streamBits, outBytes = l.stats.Actions, l.stats.StreamBits, l.stats.OutBytes
				fallbackProbes, defaultHops = l.stats.FallbackProbes, l.stats.DefaultHops
				progressMark, stall, pos = l.progressMark, l.stall, stream.pos
				stopCheck, ringN, ss = l.stopCheck, l.ringN, l.ss
				out = l.out
				base, baseSig, mode = l.base, l.baseSig, l.mode
				halted, decOK, memRefs = l.halted, l.decOK, l.stats.MemRefs
				break dispatch
			}

			cycles++
			dispatches++
			lring[ringN%fault.TraceTail] = fault.TraceEntry{Cycle: cycles, Base: base, Sym: sym}
			ringN++
			cs := &slots[slot]
			if cs.Sig != baseSig {
				// Signature miss: fallback word at base-1 (base 0 traps
				// exactly like the memory path's fetch of word -1).
				cycles++
				fallbackProbes++
				if base == 0 {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return l.trapf(fault.TrapMemOutOfWindow, "dispatch probe at word %d outside window", -1)
				}
				cs = &slots[base-1]
				if cs.Sig != baseSig || (cs.Kind != core.KindMajority && cs.Kind != core.KindDefault) {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return l.trapf(fault.TrapBadSignature, "no transition at base %d for symbol %d", base, sym)
				}
			}
			regs[core.RSym] = sym
			if cs.Kind == core.KindRefill {
				if pb := ss - cs.TakeLen; pb > 0 {
					// Inlined stream.PutBack (clamped at the origin).
					pos -= int64(pb)
					if pos < 0 {
						pos = 0
					}
					streamBits -= uint64(pb)
				}
			}

			if cs.Flags&compile.FlagFused != 0 {
				// Fused chain: static bulk charge, then the single-op
				// specializations or the flat micro-op loop.
				cycles += uint64(cs.Cost)
				actions += uint64(cs.Cost)
				switch cs.Spec {
				case compile.SpecOut8:
					out = append(out, byte(regs[cs.A&0xF]))
					outBytes++
				case compile.SpecOutI:
					out = append(out, byte(cs.Imm))
					outBytes++
				default:
					n0 := len(out)
					var bad *compile.Op
					out, pos, streamBits, bad = l.execOps(cs.Ops, out, pos, streamBits)
					outBytes += uint64(len(out) - n0)
					ss, halted = l.ss, l.halted
					if bad != nil {
						// Unreachable: lowerAction admits only the ops
						// execOps implements. Mirror the interpreter's
						// diagnostics.
						l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
						return l.trapf(fault.TrapBadSignature, "unimplemented opcode %s", bad.Code)
					}
				}
			} else if cs.Flags&compile.FlagSlow != 0 {
				// Slow chain: the interpreter's action machinery keeps
				// traps, dynamic costs and self-modification tracking
				// bit-identical.
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				var err error
				if cs.ChainIdx >= 0 {
					err = l.execChainDecoded(int(cs.ChainAddr), l.dec.Chains[cs.ChainIdx])
				} else {
					err = l.execChain(int(cs.ChainAddr))
				}
				if err != nil {
					return err
				}
				cycles, dispatches = l.stats.Cycles, l.stats.Dispatches
				actions, streamBits, outBytes = l.stats.Actions, l.stats.StreamBits, l.stats.OutBytes
				fallbackProbes, defaultHops = l.stats.FallbackProbes, l.stats.DefaultHops
				progressMark, stall, pos = l.progressMark, l.stall, stream.pos
				stopCheck, ringN, ss = l.stopCheck, l.ringN, l.ss
				out = l.out
				halted, decOK, memRefs = l.halted, l.decOK, l.stats.MemRefs
				if l.cb != 0 {
					// The chain moved the code base: every precomputed
					// NextBase is now stale. Resolve this transition the
					// way the interpreter does, then hand the rest of the
					// run to the interpreter loop (whose dispatch applies
					// cb on every hop).
					nb := int(l.cb) + int(cs.NextBase)
					base, baseSig, mode = nb, effclip.Sig(nb), cs.NextMode
					if cs.Kind != core.KindDefault {
						l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
						return l.runSingle(maxCycles)
					}
					defaultHops++
					if mode != core.ModeStream {
						l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
						return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", base)
					}
					if halted {
						break dispatch
					}
					// A default re-dispatch reuses the current symbol; the
					// memory dispatcher finishes this hop before the
					// interpreter loop takes over.
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					if err := l.dispatchMem(sym, hop+1); err != nil {
						return err
					}
					return l.runSingle(maxCycles)
				}
			}

			base = int(cs.NextBase)
			baseSig = cs.NextSig
			mode = cs.NextMode
			if cs.Kind != core.KindDefault {
				break dispatch
			}
			// Default: re-dispatch the same symbol at the target state.
			defaultHops++
			if mode != core.ModeStream {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", base)
			}
			if halted {
				break dispatch
			}
		}
	}
	l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
	return nil
}

// execOps runs a fused chain's micro-ops on the lane's registers: the one
// micro-op executor, shared by the exact loop and the fast horizon. It
// takes and returns the loop's output buffer, stream cursor and stream-bit
// count; symbol-size changes and halts land on the lane (l.ss, l.halted),
// which the caller reloads. The caller counts output bytes from the growth
// of out (emitBits also bumps l.stats.OutBytes, which the loop overwrites
// at its next sync). It stops at an op it does not implement and returns
// it, nil otherwise.
func (l *Lane) execOps(ops []compile.Op, out []byte, pos int64, streamBits uint64) ([]byte, int64, uint64, *compile.Op) {
	regs := &l.regs
	for i := range ops {
		op := &ops[i]
		switch op.Code {
		case core.OpNop:
		case core.OpAdd:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] + regs[op.Src&0xF]
		case core.OpAddi:
			regs[op.Dst&0xF] = regs[op.Src&0xF] + op.Imm
		case core.OpSub:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] - regs[op.Src&0xF]
		case core.OpSubi:
			regs[op.Dst&0xF] = regs[op.Src&0xF] - op.Imm
		case core.OpMul:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] * regs[op.Src&0xF]
		case core.OpMuli:
			regs[op.Dst&0xF] = regs[op.Src&0xF] * op.Imm
		case core.OpAnd:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] & regs[op.Src&0xF]
		case core.OpAndi:
			regs[op.Dst&0xF] = regs[op.Src&0xF] & op.Imm
		case core.OpOr:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] | regs[op.Src&0xF]
		case core.OpOri:
			regs[op.Dst&0xF] = regs[op.Src&0xF] | op.Imm
		case core.OpXor:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] ^ regs[op.Src&0xF]
		case core.OpXori:
			regs[op.Dst&0xF] = regs[op.Src&0xF] ^ op.Imm
		case core.OpNot:
			regs[op.Dst&0xF] = ^regs[op.Src&0xF]
		case core.OpShl:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] << (regs[op.Src&0xF] & 31)
		case core.OpShli:
			regs[op.Dst&0xF] = regs[op.Src&0xF] << (op.Imm & 31)
		case core.OpShr:
			regs[op.Dst&0xF] = regs[op.Ref&0xF] >> (regs[op.Src&0xF] & 31)
		case core.OpShri:
			regs[op.Dst&0xF] = regs[op.Src&0xF] >> (op.Imm & 31)
		case core.OpMov:
			regs[op.Dst&0xF] = regs[op.Src&0xF]
		case core.OpMovi:
			regs[op.Dst&0xF] = op.Imm
		case core.OpLui:
			regs[op.Dst&0xF] = regs[op.Src&0xF]&0xFFFF | op.Imm<<16
		case core.OpSeq:
			regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] == regs[op.Src&0xF])
		case core.OpSeqi:
			regs[op.Dst&0xF] = b2u(regs[op.Src&0xF] == op.Imm)
		case core.OpSne:
			regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] != regs[op.Src&0xF])
		case core.OpSnei:
			regs[op.Dst&0xF] = b2u(regs[op.Src&0xF] != op.Imm)
		case core.OpSlt:
			regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] < regs[op.Src&0xF])
		case core.OpSlti:
			regs[op.Dst&0xF] = b2u(regs[op.Src&0xF] < op.Imm)
		case core.OpSge:
			regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] >= regs[op.Src&0xF])
		case core.OpMin:
			regs[op.Dst&0xF] = min(regs[op.Ref&0xF], regs[op.Src&0xF])
		case core.OpMax:
			regs[op.Dst&0xF] = max(regs[op.Ref&0xF], regs[op.Src&0xF])
		case core.OpOut8:
			out = append(out, byte(regs[op.Src&0xF]))
		case core.OpOut16:
			v := regs[op.Src&0xF]
			out = append(out, byte(v), byte(v>>8))
		case core.OpOut32:
			v := regs[op.Src&0xF]
			out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		case core.OpOutI:
			out = append(out, byte(op.Imm))
		case core.OpEmitBits:
			l.out = out
			l.emitBits(regs[op.Src&0xF], uint(op.Imm&31))
			out = l.out
		case core.OpEmitBitsR:
			l.out = out
			l.emitBits(regs[op.Src&0xF], uint(regs[op.Ref&0xF]&31))
			out = l.out
		case core.OpFlushBits:
			if l.bitN > 0 {
				l.out = out
				l.emitBits(0, 8-l.bitN%8)
				out = l.out
			}
		case core.OpSetSS:
			l.ss = uint8(op.Imm)
			l.stats.SetSSOps++
		case core.OpPutBack:
			pos -= int64(uint8(op.Imm))
			if pos < 0 {
				pos = 0
			}
			streamBits -= uint64(op.Imm)
		case core.OpPutBackR:
			v := regs[op.Src&0xF]
			pos -= int64(uint8(v))
			if pos < 0 {
				pos = 0
			}
			streamBits -= uint64(v)
		case core.OpRead:
			l.stream.pos = pos
			regs[op.Dst&0xF] = l.stream.Take(uint8(op.Imm))
			pos = l.stream.pos
			streamBits += uint64(op.Imm)
		case core.OpSetBase:
			l.memBase = regs[op.Src&0xF] + op.Imm
		case core.OpHash:
			shift := 32 - op.Imm&31
			regs[op.Dst&0xF] = regs[op.Src&0xF] * 0x1e35a7bd >> shift
		case core.OpAccept:
			l.matches = append(l.matches, Match{PatternID: int32(op.Imm), BitPos: pos})
		case core.OpHalt:
			l.halted = true
			l.exit = int32(op.Imm)
		default:
			return out, pos, streamBits, op
		}
	}
	return out, pos, streamBits, nil
}

// horizon is the part of the compiled loop's state a fast-horizon dispatch
// moves; every other counter moves in lockstep with the dispatch count and
// is settled by the caller.
type horizon struct {
	cycles, fallbackProbes uint64
	pos                    int64
	out                    []byte
	base                   int
	baseSig                uint8
	mode                   core.DispatchMode
}

// symAt reads the ss-bit symbol (ss = 4 or 8) at the symbol-aligned bit
// position pos.
func symAt(data []byte, pos int64, ss uint8) uint32 {
	b := uint32(data[pos>>3])
	if ss == 8 {
		return b
	}
	return b >> (4 - uint64(pos&4)) & 0xF
}

// runHorizon commits up to n dispatches from the aligned cursor, stopping
// at the first one the exact path would handle differently: a probe outside
// the image, a signature miss without a majority fallback, a default or
// refill transition, a slow chain, a chain that moves the cursor, resizes
// symbols or halts, or a move into flagged mode. It returns the number
// committed and the output length before the last of them. It is kept out
// of runCompiled so its loop gets registers of its own.
func (l *Lane) runHorizon(h *horizon, n uint64, ring *[fault.TraceTail]fault.TraceEntry, ringN uint64) (k uint64, lastOut int) {
	slots, data, ss, regs := l.comp.Slots, l.stream.data, l.ss, &l.regs
	cycles, fallbackProbes, pos, out := h.cycles, h.fallbackProbes, h.pos, h.out
	base, baseSig, mode := h.base, h.baseSig, h.mode
	for ; k < n && mode <= core.ModeCommon; k++ {
		sym := symAt(data, pos, ss)
		slot := base + int(sym)
		if mode == core.ModeCommon {
			slot = base
		}
		if uint(slot) >= uint(len(slots)) {
			break
		}
		cs := &slots[slot]
		c := uint64(1)
		if cs.Sig != baseSig {
			if base == 0 {
				break
			}
			cs = &slots[base-1]
			if cs.Sig != baseSig || cs.Kind != core.KindMajority {
				break
			}
			c = 2
		} else if cs.Kind == core.KindDefault || cs.Kind == core.KindRefill {
			break
		}
		if cs.Flags&(compile.FlagSlow|compile.FlagControl) != 0 {
			break
		}
		regs[core.RSym] = sym
		ring[(ringN+k)%fault.TraceTail] = fault.TraceEntry{Cycle: cycles + 1, Base: base, Sym: sym}
		cycles += c + uint64(cs.Cost)
		fallbackProbes += c - 1
		pos += int64(ss)
		lastOut = len(out)
		if cs.Flags&compile.FlagFused != 0 {
			switch cs.Spec {
			case compile.SpecOut8:
				out = append(out, byte(regs[cs.A&0xF]))
			case compile.SpecOutI:
				out = append(out, byte(cs.Imm))
			default:
				// A chain without FlagControl leaves the cursor and the
				// stream-bit count alone, and every op lowerAction admits
				// is one execOps implements.
				out, _, _, _ = l.execOps(cs.Ops, out, pos, 0)
			}
		}
		base, baseSig, mode = int(cs.NextBase), cs.NextSig, cs.NextMode
	}
	h.cycles, h.fallbackProbes, h.pos, h.out = cycles, fallbackProbes, pos, out
	h.base, h.baseSig, h.mode = base, baseSig, mode
	return k, lastOut
}
