package sm

import (
	"fmt"

	"codedsm/internal/field"
	"codedsm/internal/mvpoly"
)

// maxBooleanInputs bounds the truth-table construction: the Appendix A
// polynomial can have up to 2^(n-1) terms, so n is kept small.
const maxBooleanInputs = 12

// BoolFunc computes one round of a Boolean machine: given stateBits bits of
// state (packed little-endian into a uint64) and cmdBits bits of command,
// it returns the next state bits and the output bits.
type BoolFunc func(state, cmd uint64) (next, out uint64)

// NewBoolean implements Appendix A: it converts an arbitrary Boolean
// transition function into a multivariate polynomial machine over GF(2^m),
// so that CSM can execute it on coded states. The construction follows
// [Zou, Theorem 2] as restated in the paper: for each output bit, the
// polynomial is sum over satisfying assignments a of prod_i z_i with
// z_i = x_i when a_i = 1 and z_i = x_i + 1 when a_i = 0; each state and
// command bit is embedded into GF(2^m) by equation (13).
//
// The resulting polynomials have total degree at most n = stateBits+cmdBits
// (the "degree <= n" bound of Section 4), and n is limited to 12 to keep
// the 2^n-term expansion tractable.
//
// The field must satisfy 2^m >= N for the Lagrange coding points to
// exist (the K machine points are the first K node points); that check
// happens when the lcc.Code is constructed.
func NewBoolean(f field.Field[uint64], name string, stateBits, cmdBits, outBits int, fn BoolFunc) (*Transition[uint64], error) {
	if stateBits < 1 || cmdBits < 1 || outBits < 1 {
		return nil, fmt.Errorf("sm: boolean machine needs positive bit widths (got %d, %d, %d)",
			stateBits, cmdBits, outBits)
	}
	n := stateBits + cmdBits
	if n > maxBooleanInputs {
		return nil, fmt.Errorf("sm: boolean machine with %d input bits exceeds limit %d (2^n-term expansion)",
			n, maxBooleanInputs)
	}
	bitPoly := func(selector func(next, out uint64) uint8) (mvpoly.Poly[uint64], error) {
		acc := mvpoly.Zero[uint64](n)
		for a := uint64(0); a < 1<<n; a++ {
			state := a & ((1 << stateBits) - 1)
			cmd := a >> stateBits
			next, out := fn(state, cmd)
			if selector(next, out) == 0 {
				continue
			}
			// h_a = prod_i z_i with z_i = x_i if a_i=1 else x_i + 1.
			h := mvpoly.Constant[uint64](f, n, f.One())
			for i := 0; i < n; i++ {
				v, err := mvpoly.Variable[uint64](f, n, i)
				if err != nil {
					return mvpoly.Poly[uint64]{}, err
				}
				if a&(1<<i) == 0 {
					if v, err = v.Add(f, mvpoly.Constant[uint64](f, n, f.One())); err != nil {
						return mvpoly.Poly[uint64]{}, err
					}
				}
				if h, err = h.Mul(f, v); err != nil {
					return mvpoly.Poly[uint64]{}, err
				}
			}
			var err error
			if acc, err = acc.Add(f, h); err != nil {
				return mvpoly.Poly[uint64]{}, err
			}
		}
		return acc, nil
	}
	nextPolys := make([]mvpoly.Poly[uint64], stateBits)
	for bit := 0; bit < stateBits; bit++ {
		b := bit
		p, err := bitPoly(func(next, _ uint64) uint8 { return uint8(next >> b & 1) })
		if err != nil {
			return nil, err
		}
		nextPolys[bit] = p
	}
	outPolys := make([]mvpoly.Poly[uint64], outBits)
	for bit := 0; bit < outBits; bit++ {
		b := bit
		p, err := bitPoly(func(_, out uint64) uint8 { return uint8(out >> b & 1) })
		if err != nil {
			return nil, err
		}
		outPolys[bit] = p
	}
	return NewTransition[uint64](f, name, stateBits, cmdBits, nextPolys, outPolys)
}

// PackBits embeds the low `width` bits of v into a GF(2^m) vector per
// equation (13) (bit i of v becomes coordinate i).
func PackBits(f *field.GF2m, v uint64, width int) []uint64 {
	out := make([]uint64, width)
	for i := 0; i < width; i++ {
		out[i] = f.EmbedBit(uint8(v >> i & 1))
	}
	return out
}

// UnpackBits inverts PackBits; it fails if any coordinate is not an
// embedded bit (which cannot happen in an honest execution, Appendix A).
func UnpackBits(f *field.GF2m, vec []uint64) (uint64, error) {
	var v uint64
	for i, e := range vec {
		bit, err := f.ExtractBit(e)
		if err != nil {
			return 0, fmt.Errorf("sm: coordinate %d: %w", i, err)
		}
		v |= uint64(bit) << i
	}
	return v, nil
}
