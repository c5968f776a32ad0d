package poly

// Fast polynomial division via Newton iteration on the reversed divisor
// (von zur Gathen & Gerhard, ch. 9). With NTT multiplication this makes
// DivMod cost O(M(n)), which in turn makes the subproduct-tree algorithms
// genuinely O(M(n) log n) — the quasilinear coding complexity the paper's
// throughput theorem needs.

// fastDivThreshold: below this operand size the schoolbook division wins.
const fastDivThreshold = 48

// divModDispatch picks the naive or Newton division. Callers guarantee a, b
// normalized and b nonzero.
func (r *Ring[E]) divModDispatch(a, b Poly[E]) (q, rem Poly[E], err error) {
	if !r.fastDiv(a, b) {
		return r.divModNaive(a, b)
	}
	return r.fastDivMod(a, b)
}

// fastDiv reports whether dividing a by b takes Newton iteration.
func (r *Ring[E]) fastDiv(a, b Poly[E]) bool {
	return r.ntt != nil && len(b) >= fastDivThreshold && len(a)-len(b) >= fastDivThreshold
}

// fastDivMod divides using q = rev(rev(a) * rev(b)^-1 mod z^(deg a - deg b + 1)).
func (r *Ring[E]) fastDivMod(a, b Poly[E]) (q, rem Poly[E], err error) {
	n, m := len(a)-1, len(b)-1
	k := n - m + 1 // quotient length
	revA := reversed(a)
	revB := reversed(b)
	invRevB, err := r.invSeries(revB, k)
	if err != nil {
		return nil, nil, err
	}
	qRev := truncated(r.Mul(revA, invRevB), k)
	// Pad qRev to exactly k coefficients before reversing.
	for len(qRev) < k {
		qRev = append(qRev, r.f.Zero())
	}
	q = r.Normalize(reversed(qRev))
	rem = r.Sub(a, r.Mul(q, b))
	return q, rem, nil
}

// invSeries returns the power-series inverse of p modulo z^k by Newton
// iteration g <- g*(2 - p*g); requires p[0] != 0.
func (r *Ring[E]) invSeries(p Poly[E], k int) (Poly[E], error) {
	c0, err := r.f.Inv(p[0])
	if err != nil {
		return nil, err
	}
	g := Poly[E]{c0}
	two := r.f.Add(r.f.One(), r.f.One())
	for prec := 1; prec < k; {
		prec = min(2*prec, k)
		pg := truncated(r.Mul(truncated(p, prec), g), prec)
		// s = 2 - p*g (valid in every characteristic: 1 - p*g*(2-p*g) =
		// (1 - p*g)^2).
		s := r.Sub(Poly[E]{two}, pg)
		g = truncated(r.Mul(g, s), prec)
	}
	return g, nil
}

// reversed returns the coefficient-reversed copy of p.
func reversed[E comparable](p Poly[E]) Poly[E] {
	out := make(Poly[E], len(p))
	for i := range p {
		out[len(p)-1-i] = p[i]
	}
	return out
}

// truncated returns p mod z^k (a copy-free slice of p when possible).
func truncated[E comparable](p Poly[E], k int) Poly[E] {
	if len(p) <= k {
		return p
	}
	return p[:k]
}
