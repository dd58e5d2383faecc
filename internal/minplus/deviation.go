package minplus

import (
	"math"
	"slices"
	"sort"
)

// HorizontalDeviation returns h(alpha, beta) = sup_{t>=0} inf{ d >= 0 :
// alpha(t) <= beta(t+d) }, the classical Network Calculus delay bound for
// traffic with arrival curve alpha served with service curve beta (FIFO
// order within the aggregate).
//
// The deviation is +Inf when the arrival curve's long-term rate exceeds the
// service curve's (unstable server), and is reported as such; callers treat
// that case as an analysis error.
func HorizontalDeviation(alpha, beta Curve) float64 {
	var s Scratch
	return s.HorizontalDeviation(alpha, beta)
}

// HorizontalDeviation is the package-level HorizontalDeviation with its
// ordinate candidates collected in the scratch buffer: the same float
// operations in the same order, without allocating once the buffer has
// grown. It does not disturb a curve returned by s.FIFOResidual, so a
// theta sweep can take the deviation of each residual in turn.
func (s *Scratch) HorizontalDeviation(alpha, beta Curve) float64 {
	ra, rb := alpha.LongTermRate(), beta.LongTermRate()
	if ra > rb+Eps {
		return math.Inf(1)
	}
	// In the "inverse domain" h = sup_y ( betaInv(y) - alphaInv(y) ) over
	// the ordinates reached by alpha; the difference of the two pseudo-
	// inverses is piecewise linear in y with breakpoints at the ordinate
	// breakpoints of either curve, so scanning those suffices. When the
	// long-term rates are equal the tail difference is constant and the
	// last candidate already covers it; when ra < rb the tail decreases.
	ys := slices.Grow(s.xs[:0], 2*(len(alpha.segs)+len(beta.segs)))
	ys = beta.appendBreakpointYs(alpha.appendBreakpointYs(ys))
	s.xs = ys
	sort.Float64s(ys)
	ys = dedupeFloats(ys)
	yMax := math.Inf(1)
	if last := alpha.LastSegment(); last.Slope <= Eps {
		yMax = last.Y // alpha is bounded; higher ordinates are never produced
	}
	h := 0.0
	ka, kb := 0, 0 // resume points of the pseudo-inverse scans
	for _, y := range ys {
		if y <= Eps || y > yMax+Eps {
			continue
		}
		tb, nb := beta.inverseFrom(y, kb)
		ta, na := alpha.inverseFrom(y, ka)
		if !math.IsNaN(y) { // NaN sorts first and bounds nothing above it
			ka, kb = na, nb
		}
		if d := tb - ta; d > h {
			h = d
		}
	}
	// The supremum can also occur as y -> 0+ with a latency-only beta and
	// an alpha with zero initial value: cover it with the first positive
	// ordinate of alpha (its initial jump) handled above, plus t=0 burst:
	if b := alpha.ValueAtZero(); b > Eps {
		if d := beta.InverseInf(b); d > h {
			h = d
		}
	} else if len(beta.segs) > 0 && beta.segs[0].Slope <= Eps && len(beta.segs) > 1 {
		// alpha starts at 0 with some rate; any positive ordinate waits at
		// least beta's latency.
		if alpha.LongTermRate() > Eps || alpha.LastSegment().Y > Eps {
			if d := beta.segs[1].X; d > h {
				h = d
			}
		}
	}
	return h
}

// VerticalDeviation returns v(alpha, beta) = sup_{t>=0} (alpha(t) - beta(t)),
// the classical backlog (buffer occupancy) bound. It is +Inf for unstable
// servers.
func VerticalDeviation(alpha, beta Curve) float64 {
	ra, rb := alpha.LongTermRate(), beta.LongTermRate()
	if ra > rb+Eps {
		return math.Inf(1)
	}
	var s Scratch
	xs := s.breakpoints(alpha, beta)
	v := 0.0
	for _, x := range xs {
		if d := alpha.Eval(x) - beta.Eval(x); d > v {
			v = d
		}
	}
	return v
}
