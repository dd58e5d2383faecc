package minplus

import (
	"fmt"
	"math"
	"sort"
)

// This file is the reference implementation of the FIFO-tier kernel:
// Add, Min, FIFOResidual and HorizontalDeviation exactly as they shipped
// before the scratch-buffer forms (Scratch), which allocate their
// breakpoint, sample and segment slices per call and binary-search
// the curves per sample. They are kept so the scratch forms can be
// proven bit-identical against them: FuzzFIFOResidual
// (scratch_test.go) drives both with random shapes through one reused
// Scratch and compares every segment, deviation and error bitwise.

// addRef is the reference Add.
func addRef(a, b Curve) Curve {
	xs := mergeXs(a.breakpointXs(), b.breakpointXs())
	segs := make([]Segment, 0, len(xs))
	for _, x := range xs {
		segs = append(segs, Segment{
			X:     x,
			Y:     a.Eval(x) + b.Eval(x),
			Slope: a.slopeAt(x) + b.slopeAt(x),
		})
	}
	c := Curve{segs: segs}
	c.normalize()
	return c
}

// minRef is the reference Min.
func minRef(a, b Curve) Curve {
	xs := mergeXs(a.breakpointXs(), b.breakpointXs())
	// Within each interval both inputs are linear; they cross at most once.
	// Collect interval starts plus interior crossing points.
	var cuts []float64
	for i, x := range xs {
		cuts = append(cuts, x)
		end := math.Inf(1)
		if i+1 < len(xs) {
			end = xs[i+1]
		}
		da := a.Eval(x) - b.Eval(x)
		ds := a.slopeAt(x) - b.slopeAt(x)
		if math.Abs(ds) <= Eps || math.Abs(da) <= Eps {
			continue
		}
		cross := x - da/ds
		if cross > x+Eps && cross < end-Eps {
			cuts = append(cuts, cross)
		}
	}
	sort.Float64s(cuts)
	segs := make([]Segment, 0, len(cuts))
	for _, x := range cuts {
		va, vb := a.Eval(x), b.Eval(x)
		if va <= vb {
			segs = append(segs, Segment{X: x, Y: va, Slope: a.slopeAt(x)})
		} else {
			segs = append(segs, Segment{X: x, Y: vb, Slope: b.slopeAt(x)})
		}
	}
	// At a crossing point the winning slope must be the smaller of the two
	// to stay below both curves until the next cut; fix up ties.
	for i := range segs {
		x := segs[i].X
		if math.Abs(a.Eval(x)-b.Eval(x)) <= Eps {
			segs[i].Slope = math.Min(a.slopeAt(x), b.slopeAt(x))
			// Keep the slope valid only until either input bends; the next
			// cut point re-samples, so this is safe within the interval.
		}
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c
}

// fifoResidualRef is the reference FIFOResidual.
func fifoResidualRef(beta, alpha Curve, theta float64) (Curve, error) {
	if !beta.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: FIFOResidual requires a convex service curve")
	}
	if !alpha.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: FIFOResidual requires a concave cross-traffic envelope")
	}
	if theta < 0 {
		return Curve{}, fmt.Errorf("minplus: FIFOResidual requires theta >= 0, got %g", theta)
	}
	if beta.LongTermRate() < alpha.LongTermRate()-Eps {
		return Curve{}, fmt.Errorf("minplus: FIFO residual unbounded: cross rate %g exceeds service rate %g",
			alpha.LongTermRate(), beta.LongTermRate())
	}
	// Sample points: theta itself, beta's breakpoints past theta, and
	// alpha's breakpoints shifted right by theta. The difference is
	// linear between consecutive samples.
	xs := []float64{theta}
	for _, x := range beta.breakpointXs() {
		if x > theta+Eps {
			xs = append(xs, x)
		}
	}
	for _, x := range alpha.breakpointXs() {
		if x > Eps {
			xs = append(xs, x+theta)
		}
	}
	sort.Float64s(xs)
	xs = dedupeFloats(xs)
	type pt struct{ x, d, slope float64 }
	pts := make([]pt, 0, len(xs))
	for _, x := range xs {
		pts = append(pts, pt{
			x:     x,
			d:     beta.Eval(x) - alpha.Eval(x-theta),
			slope: beta.slopeAt(x) - alpha.slopeAt(x-theta),
		})
	}
	// The convex difference attains its minimum at the first sample with
	// a non-negative outgoing slope; flatten the decreasing prefix to
	// that minimum (the non-decreasing closure from below).
	iMin := len(pts) - 1
	for i, p := range pts {
		if p.slope >= -Eps {
			iMin = i
			break
		}
	}
	m := pts[iMin].d
	for i := 0; i < iMin; i++ {
		pts[i].d = m
		pts[i].slope = 0
	}
	segs := []Segment{}
	if theta > Eps {
		segs = append(segs, Segment{X: 0, Y: 0, Slope: 0})
	}
	emit := func(x, y, slope float64) {
		if y < 0 {
			y = 0
		}
		if slope < 0 {
			slope = 0
		}
		if n := len(segs); n > 0 && x <= segs[n-1].X+Eps && segs[n-1].X > Eps {
			segs[n-1] = Segment{X: segs[n-1].X, Y: y, Slope: slope}
			return
		}
		segs = append(segs, Segment{X: x, Y: y, Slope: slope})
	}
	for i, p := range pts {
		end := math.Inf(1)
		if i+1 < len(pts) {
			end = pts[i+1].x
		}
		switch {
		case p.d <= Eps && p.slope <= Eps:
			emit(p.x, 0, 0)
		case p.d <= Eps && p.slope > Eps:
			// Root inside the interval (or at its start).
			root := p.x - p.d/p.slope
			if root <= p.x+Eps {
				emit(p.x, 0, p.slope)
			} else {
				emit(p.x, 0, 0)
				if root < end {
					emit(root, 0, p.slope)
				}
			}
		default: // p.d > 0
			emit(p.x, p.d, p.slope)
		}
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c, nil
}

// horizontalDeviationRef is the reference HorizontalDeviation.
func horizontalDeviationRef(alpha, beta Curve) float64 {
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
	ys := append(breakpointYsRef(alpha), breakpointYsRef(beta)...)
	sort.Float64s(ys)
	ys = dedupeFloats(ys)
	yMax := math.Inf(1)
	if last := alpha.LastSegment(); last.Slope <= Eps {
		yMax = last.Y // alpha is bounded; higher ordinates are never produced
	}
	h := 0.0
	for _, y := range ys {
		if y <= Eps || y > yMax+Eps {
			continue
		}
		d := beta.InverseInf(y) - alpha.InverseInf(y)
		if d > h {
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

// breakpointYsRef is the reference ordinate-candidate list of
// horizontalDeviationRef.
func breakpointYsRef(c Curve) []float64 {
	ys := make([]float64, 0, 2*len(c.segs))
	for i, s := range c.segs {
		if i > 0 {
			prev := c.segs[i-1]
			ys = append(ys, prev.Y+prev.Slope*(s.X-prev.X))
		}
		ys = append(ys, s.Y)
	}
	return ys
}

// mergeXs is the reference breakpoint list of addRef and minRef (and
// of SubPos and VerticalDeviation before they merged with
// Scratch.breakpoints): both lists concatenated, sorted, and
// deduplicated within Eps.
func mergeXs(a, b []float64) []float64 {
	xs := append(append([]float64{}, a...), b...)
	sort.Float64s(xs)
	return dedupeFloats(xs)
}
