// Package machine is the cycle-level simulator of the UDP: it executes
// EffCLiP-laid-out machine images word by word, modeling the paper's
// micro-architecture (Figure 23): the Dispatch unit (multi-way dispatch with
// signature validation and fallback), the Stream Buffer + Prefetch unit
// (variable-size symbols, putback/refill), and the Action unit, together with
// the lane-local window of the multi-bank memory. It maintains the cycle and
// event counters the evaluation and energy models consume.
package machine

import "encoding/binary"

// BitStream is the lane stream buffer: an MSB-first bit cursor over an input
// byte slice with putback support (paper Section 3.2.2). The prefetch unit is
// modeled as zero-latency (stream reads are hidden behind dispatch).
type BitStream struct {
	data []byte
	pos  int64 // bit position
}

// NewBitStream wraps data in a stream positioned at bit 0.
func NewBitStream(data []byte) *BitStream { return &BitStream{data: data} }

// Reset rebinds the stream to data at bit 0, letting a lane reuse one
// BitStream across shards instead of allocating per input.
func (b *BitStream) Reset(data []byte) {
	b.data = data
	b.pos = 0
}

// Has reports whether n more bits are available.
func (b *BitStream) Has(n uint8) bool { return b.pos+int64(n) <= int64(len(b.data))*8 }

// Len returns the total stream length in bits.
func (b *BitStream) Len() int64 { return int64(len(b.data)) * 8 }

// Pos returns the current bit position.
func (b *BitStream) Pos() int64 { return b.pos }

// SeekBit sets the bit position (clamped to the stream bounds).
func (b *BitStream) SeekBit(pos int64) {
	if pos < 0 {
		pos = 0
	}
	if max := b.Len(); pos > max {
		pos = max
	}
	b.pos = pos
}

// Take consumes the next n bits (n <= 32) MSB first and returns them in the
// low bits of the result. The caller must check Has first; Take returns what
// remains zero-padded otherwise. For n > 32 it consumes all n bits and
// returns the last 32.
func (b *BitStream) Take(n uint8) uint32 {
	if n > 32 {
		b.pos += int64(n - 32)
		n = 32
	}
	pos := b.pos
	b.pos += int64(n)
	// The n bits start at bit pos&7 of the 64-bit big-endian window at byte
	// pos>>3, and 7+32 bits always fit in it.
	i := pos >> 3
	var w uint64
	if i+8 <= int64(len(b.data)) {
		w = binary.BigEndian.Uint64(b.data[i:])
	} else {
		for j := i; j < i+8; j++ {
			w <<= 8
			if j < int64(len(b.data)) {
				w |= uint64(b.data[j])
			}
		}
	}
	return uint32(w << uint(pos&7) >> (64 - uint(n)))
}

// TakeByteFast consumes one aligned byte when possible, else falls back to
// Take(8). It is the common case for 8-bit symbol programs.
func (b *BitStream) TakeByteFast() uint32 {
	if b.pos&7 == 0 {
		i := b.pos >> 3
		if i < int64(len(b.data)) {
			b.pos += 8
			return uint32(b.data[i])
		}
	}
	return b.Take(8)
}

// PutBack returns n bits to the stream (refill).
func (b *BitStream) PutBack(n uint8) {
	b.pos -= int64(n)
	if b.pos < 0 {
		b.pos = 0
	}
}
