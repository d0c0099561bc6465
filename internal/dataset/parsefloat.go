package dataset

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// parseFloat parses a decimal number — an optional sign, digits with an
// optional '.', and an optional exponent — and returns the float64
// nearest to it, the value strconv.ParseFloat returns, bit for bit. It
// returns false whenever it cannot decide: more than 19 significant
// digits, a decimal exponent outside the table, a result that is
// subnormal or overflows, a halfway case the 128-bit product cannot
// settle, and every other syntax ParseFloat knows (hex, Inf, NaN,
// underscores). Those fields go to strconv.ParseFloat.
func parseFloat(b []byte) (float64, bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i++
	}
	start := i
	var mant uint64
	for i < len(b) && b[i]-'0' < 10 {
		mant = mant*10 + uint64(b[i]-'0')
		i++
	}
	digits := i - start
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for len(b)-i >= 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if !eightDigits(v) {
				break
			}
			mant = mant*1e8 + eightDigitValue(v)
			i += 8
		}
		for i < len(b) && b[i]-'0' < 10 {
			mant = mant*10 + uint64(b[i]-'0')
			i++
		}
		exp10 = frac - i
		digits += i - frac
	}
	if digits == 0 {
		return 0, false
	}
	if digits > 19 && significantDigits(b[start:i]) > 19 {
		return 0, false // mant overflowed
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		e, first := 0, i
		for i < len(b) && b[i]-'0' < 10 {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
			i++
		}
		if i == first {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if i != len(b) {
		return 0, false
	}
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	// Clinger's fast path: mant and 10^|exp10| are both exact float64s,
	// so one IEEE multiply or divide rounds the exact result once.
	if mant <= 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f := float64(mant)
		if exp10 < 0 {
			f /= exactPow10[-exp10]
		} else {
			f *= exactPow10[exp10]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return eiselLemire(mant, exp10, neg)
}

// significantDigits counts the digits of a mantissa (digits with at
// most one '.') after its leading zeros.
func significantDigits(m []byte) int {
	n := 0
	for _, c := range m {
		if c != '.' && (n > 0 || c != '0') {
			n++
		}
	}
	return n
}

// eightDigits reports whether all eight bytes of v (read little-endian)
// are ASCII digits: each byte's high nibble is 3, and adding 6 carries
// no byte out of it.
func eightDigits(v uint64) bool {
	return v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 == 0x3333333333333333
}

// eightDigitValue converts eight ASCII digits, the first in the lowest
// byte, to their value: adjacent digits combine into two-digit bytes,
// then two multiplies combine those into the eight-digit number.
func eightDigitValue(v uint64) uint64 {
	v -= 0x3030303030303030
	v = v*10 + v>>8 // byte 2k now holds digit 2k * 10 + digit 2k+1
	const mask = 0x000000FF000000FF
	return ((v&mask)*(100+1000000<<32) + (v>>16&mask)*(1+10000<<32)) >> 32
}

// exactPow10 lists the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// The Eisel–Lemire table covers 10^minPow10 … 10^maxPow10; every
// float64 a 19-digit mantissa can reach lies in that range.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table holds, for each e in [minPow10, maxPow10], the 128-bit
// mantissa of 10^e as {low, high} words: 10^e rounded down to its 128
// leading bits, so the high word's top bit is set. It is built with
// math/big the first time a field needs it.
var pow10Table = sync.OnceValue(func() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	var buf [16]byte
	p := big.NewInt(1) // 10^|e|
	ten := big.NewInt(10)
	m := new(big.Int)
	for e := 0; e <= -minPow10; e++ {
		if e <= maxPow10 { // 10^e: shift its leading 128 bits into place
			if s := p.BitLen() - 128; s > 0 {
				m.Rsh(p, uint(s))
			} else {
				m.Lsh(p, uint(-s))
			}
			m.FillBytes(buf[:])
			t[e-minPow10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
		}
		if e > 0 { // 10^-e = floor(2^(127+L) / 10^e) with L = bitlen(10^e)
			m.Lsh(m.SetInt64(1), uint(127+p.BitLen()))
			m.Quo(m, p)
			m.FillBytes(buf[:])
			t[-e-minPow10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
		}
		p.Mul(p, ten)
	}
	return &t
})

// eiselLemire returns the float64 nearest to mant·10^exp10 for a
// non-zero mant (Lemire, "Number Parsing at a Gigabyte per Second",
// arXiv:2101.11408). It multiplies the normalized mantissa by the
// table's truncated 128-bit power of ten and keeps the leading 54 bits
// of the product; it gives up when the truncation error could reach
// the rounding bit or the result is subnormal or infinite.
func eiselLemire(mant uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10Table()[exp10-minPow10]
	lz := bits.LeadingZeros64(mant)
	mant <<= uint(lz)
	// floor(217706·e / 2^16) is floor(e·log2 10) across the table, so
	// this is the biased exponent of a product whose top bit is bit 127.
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(lz)

	hi, lo := bits.Mul64(mant, pow[1])
	if hi&0x1FF == 0x1FF && lo+mant < mant {
		// The bits below the 54 kept ones are all ones and the dropped
		// part of the power could carry into them: add the low word's
		// product, and give up if a carry is still possible.
		hi2, lo2 := bits.Mul64(mant, pow[0])
		mhi, mlo := hi, lo+hi2
		if mlo < lo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && lo2+mant < mant {
			return 0, false
		}
		hi, lo = mhi, mlo
	}

	top := hi >> 63
	m := hi >> (top + 9) // the leading 54 bits
	exp2 -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && m&3 == 1 {
		// It looks exactly halfway, and the truncated product cannot
		// tell a tie (round to even) from a value just above it.
		return 0, false
	}
	m += m & 1 // round half up to 53 bits
	m >>= 1
	if m>>53 > 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // exp2 == 0 (subnormal) or >= 0x7FF (infinite)
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
