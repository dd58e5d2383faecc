package minplus

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Add returns the pointwise sum of two curves.
func Add(a, b Curve) Curve {
	var s Scratch
	return s.Add(a, b)
}

// Add is the package-level Add computed in the scratch buffers; the
// result aliases s until its next Add call.
func (s *Scratch) Add(a, b Curve) Curve {
	xs := s.breakpoints(a, b)
	ac, bc := cursor{segs: a.segs}, cursor{segs: b.segs}
	segs := slices.Grow(s.sum[:0], len(xs))
	for _, x := range xs {
		segs = append(segs, Segment{
			X:     x,
			Y:     ac.eval(x) + bc.eval(x),
			Slope: ac.slope(x) + bc.slope(x),
		})
	}
	s.sum = segs
	c := Curve{segs: segs}
	c.normalize()
	return c
}

// Sum returns the pointwise sum of any number of curves.
// Sum of zero curves is the zero curve.
func Sum(curves ...Curve) Curve {
	acc := Zero()
	for _, c := range curves {
		acc = Add(acc, c)
	}
	return acc
}

// Min returns the pointwise minimum of two curves. The result of taking
// the minimum of two non-decreasing curves is non-decreasing.
func Min(a, b Curve) Curve {
	var s Scratch
	return s.Min(a, b)
}

// Min is the package-level Min computed in the scratch buffers; the
// result aliases s until its next Min call.
func (s *Scratch) Min(a, b Curve) Curve {
	xs := s.breakpoints(a, b)
	// Within each interval both inputs are linear; they cross at most once.
	// Collect interval starts plus interior crossing points. Every pass
	// below visits increasing abscissae, so each samples the inputs with
	// fresh cursors.
	ac, bc := cursor{segs: a.segs}, cursor{segs: b.segs}
	cuts := slices.Grow(s.cuts[:0], 2*len(xs))
	for i, x := range xs {
		cuts = append(cuts, x)
		end := math.Inf(1)
		if i+1 < len(xs) {
			end = xs[i+1]
		}
		da := ac.eval(x) - bc.eval(x)
		ds := ac.slope(x) - bc.slope(x)
		if math.Abs(ds) <= Eps || math.Abs(da) <= Eps {
			continue
		}
		cross := x - da/ds
		if cross > x+Eps && cross < end-Eps {
			cuts = append(cuts, cross)
		}
	}
	s.cuts = cuts
	sort.Float64s(cuts)
	ac, bc = cursor{segs: a.segs}, cursor{segs: b.segs}
	segs := slices.Grow(s.min[:0], len(cuts))
	for _, x := range cuts {
		va, vb := ac.eval(x), bc.eval(x)
		if va <= vb {
			segs = append(segs, Segment{X: x, Y: va, Slope: ac.slope(x)})
		} else {
			segs = append(segs, Segment{X: x, Y: vb, Slope: bc.slope(x)})
		}
	}
	s.min = segs
	// At a crossing point the winning slope must be the smaller of the two
	// to stay below both curves until the next cut; fix up ties.
	ac, bc = cursor{segs: a.segs}, cursor{segs: b.segs}
	for i := range segs {
		x := segs[i].X
		if math.Abs(ac.eval(x)-bc.eval(x)) <= Eps {
			segs[i].Slope = math.Min(ac.slope(x), bc.slope(x))
			// Keep the slope valid only until either input bends; the next
			// cut point re-samples, so this is safe within the interval.
		}
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c
}

// breakpoints returns the two curves' piece abscissae in increasing
// order, points within Eps of the previous one dropped, built in s.xs.
// Abscissae strictly increase within a curve, so merging the two runs
// yields their sorted concatenation without sorting it.
func (s *Scratch) breakpoints(a, b Curve) []float64 {
	xs := slices.Grow(s.xs[:0], len(a.segs)+len(b.segs))
	for i, j := 0, 0; i < len(a.segs) || j < len(b.segs); {
		var x float64
		if j == len(b.segs) || (i < len(a.segs) && a.segs[i].X <= b.segs[j].X) {
			x = a.segs[i].X
			i++
		} else {
			x = b.segs[j].X
			j++
		}
		if len(xs) == 0 || x > xs[len(xs)-1]+Eps {
			xs = append(xs, x)
		}
	}
	s.xs = xs
	return xs
}

// MinOf returns the pointwise minimum of any number of curves.
// It panics when called with no curves.
func MinOf(curves ...Curve) Curve {
	if len(curves) == 0 {
		panic("minplus: MinOf of no curves")
	}
	acc := curves[0]
	for _, c := range curves[1:] {
		acc = Min(acc, c)
	}
	return acc
}

// ConvolveConcave computes the (min,+) convolution of two concave curves
// (each a concave function plus an initial jump at t=0, e.g. leaky buckets
// or minima of leaky buckets). For such curves
//
//	(f ⊗ g)(t) = f(0) + g(0) + min(f̂, ĝ)(t)
//
// where f̂, ĝ are the inputs with their initial jumps removed. An error is
// returned when an input is not concave.
func ConvolveConcave(f, g Curve) (Curve, error) {
	if !f.IsConcave() || !g.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: ConvolveConcave requires concave inputs")
	}
	fh := shiftDown(f, f.ValueAtZero())
	gh := shiftDown(g, g.ValueAtZero())
	m := Min(fh, gh)
	return shiftUp(m, f.ValueAtZero()+g.ValueAtZero()), nil
}

// ConvolveConvex computes the (min,+) convolution of two convex curves
// through the origin (e.g. rate-latency service curves). The result is the
// concatenation of the linear pieces of both inputs sorted by increasing
// slope; for beta_{R1,T1} ⊗ beta_{R2,T2} this yields beta_{min(R1,R2),T1+T2}.
func ConvolveConvex(f, g Curve) (Curve, error) {
	if !f.IsConvex() || !g.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: ConvolveConvex requires convex inputs through the origin")
	}
	type piece struct {
		len   float64 // horizontal length; +Inf for the final piece
		slope float64
	}
	collect := func(c Curve) []piece {
		var ps []piece
		for i, s := range c.segs {
			l := math.Inf(1)
			if i+1 < len(c.segs) {
				l = c.segs[i+1].X - s.X
			}
			ps = append(ps, piece{len: l, slope: s.Slope})
		}
		return ps
	}
	ps := append(collect(f), collect(g)...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].slope < ps[j].slope })
	segs := []Segment{}
	x, y := 0.0, 0.0
	for _, p := range ps {
		segs = append(segs, Segment{X: x, Y: y, Slope: p.slope})
		if math.IsInf(p.len, 1) {
			break // pieces with larger slope are never reached
		}
		y += p.slope * p.len
		x += p.len
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c, nil
}

// Deconvolve computes the (min,+) deconvolution (f ⊘ g)(t) = sup_{u>=0}
// f(t+u) - g(u) for a concave arrival curve f and a convex service curve g
// with long-term rate strictly greater than f's (otherwise the result is
// unbounded and an error is returned). The result is the tightest arrival
// envelope of the output of a g-server fed with f-constrained traffic.
func Deconvolve(f, g Curve) (Curve, error) {
	// Pure-delay denominator: (f ⊘ delta_d)(t) = sup_u f(t+u) - delta_d(u)
	// = f(t+d) exactly — the left-shift of f. The special case must run
	// before the shape checks below: delta_d has an interior +Inf jump
	// (not convex) and long-term rate 0, both of which would wrongly
	// reject it, and the closed form is exact for arbitrary f.
	if d, ok := g.delayOf(); ok {
		return deconvDelay(f, d), nil
	}
	if !f.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: Deconvolve requires a concave numerator")
	}
	if !g.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: Deconvolve requires a convex denominator")
	}
	if f.LongTermRate() > g.LongTermRate()+Eps {
		return Curve{}, fmt.Errorf("minplus: deconvolution unbounded: arrival rate %g exceeds service rate %g",
			f.LongTermRate(), g.LongTermRate())
	}
	// f(t+u)-g(u) is concave in u for fixed t, so the supremum is attained
	// at u=0, at a breakpoint of g, or at u such that t+u is a breakpoint
	// of f. The resulting curve is concave in t with breakpoints among
	// {xf - xg : xf breakpoint of f, xg breakpoint of g} (>= 0).
	var ts []float64
	for _, xf := range f.breakpointXs() {
		for _, xg := range g.breakpointXs() {
			if d := xf - xg; d >= 0 {
				ts = append(ts, d)
			}
		}
	}
	ts = append(ts, 0)
	sort.Float64s(ts)
	ts = dedupeFloats(ts)

	sup := func(t float64) float64 {
		best := math.Inf(-1)
		consider := func(u float64) {
			if u < 0 {
				return
			}
			if v := f.Eval(t+u) - g.Eval(u); v > best {
				best = v
			}
		}
		consider(0)
		for _, xg := range g.breakpointXs() {
			consider(xg)
		}
		for _, xf := range f.breakpointXs() {
			consider(xf - t)
		}
		return best
	}

	segs := make([]Segment, 0, len(ts))
	for i, t := range ts {
		y := sup(t)
		var slope float64
		if i+1 < len(ts) {
			next := ts[i+1]
			slope = (sup(next) - y) / (next - t)
		} else {
			slope = f.LongTermRate()
		}
		if slope < 0 {
			slope = 0
		}
		segs = append(segs, Segment{X: t, Y: y, Slope: slope})
	}
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c, nil
}

// deconvDelay realises (f ⊘ delta_d)(t) = f(t + d): the first piece
// starts at f's value and slope at d, the pieces past d shift left.
// For a single-piece leaky bucket the origin value is literally
// f.Eval(d) = b + r*(d-0), the same float expression as the classical
// burst inflation b + r*d — the deconvolution ablation and the
// classical propagation agree bit for bit.
func deconvDelay(f Curve, d float64) Curve {
	segs := []Segment{{X: 0, Y: f.Eval(d), Slope: f.slopeAt(d)}}
	for _, s := range f.segs {
		if s.X > d+Eps {
			segs = append(segs, Segment{X: s.X - d, Y: s.Y, Slope: s.Slope})
		}
	}
	c := Curve{segs: segs}
	c.normalize()
	return c
}

// Scratch holds the working buffers of the allocation-free forms of
// Add, Min, FIFOResidual and HorizontalDeviation, the kernel of a FIFO
// theta sweep: one cross-traffic envelope per flow, then a residual
// and its deviation per theta candidate. With one Scratch reused
// across the sweep the buffers grow to the largest curve seen and no
// call allocates after that.
//
// A curve returned by (*Scratch).Add, (*Scratch).Min or
// (*Scratch).FIFOResidual aliases the scratch and stays valid only
// until the next call of the same method on the same Scratch; the
// other methods leave it intact, so a minimum can feed a sum, a sum
// the residuals and a residual its deviation. An input must not be
// the result of the same method on the same Scratch. A Scratch must
// not be shared between goroutines; the zero value is ready to use.
type Scratch struct {
	xs, cuts           []float64 // working lists, dead once a call returns
	sum, min, residual []Segment // the results of Add, Min and FIFOResidual
}

// FIFOResidual returns the FIFO residual service curve
//
//	beta_theta(t) = [beta(t) - alpha(t - theta)]+ · 1{t > theta}
//
// left for one flow of a FIFO aggregate served by beta when the
// competing traffic is alpha-constrained (Le Boudec & Thiran,
// Thm 6.2.2; Bouillard's FIFO analyses minimise over theta). Every
// theta >= 0 yields a valid service curve for the flow, so callers
// may take the best delay bound over any finite candidate set.
//
// The difference beta(t) - alpha(t-theta) is convex on [theta, +inf)
// (beta's slopes only grow, alpha's only shrink), so it can dip before
// it rises; the dip's positive part would not be non-decreasing. The
// result is therefore the largest non-decreasing minorant of the
// positive part — still a valid (smaller) service curve, and a proper
// Curve. A possible upward jump at theta (when beta(theta) already
// exceeds the residual minimum) is legal for Curve.
//
// The result owns its storage; a sweep over many theta values uses
// (*Scratch).FIFOResidual instead, which computes the same curve bit
// for bit without allocating.
func FIFOResidual(beta, alpha Curve, theta float64) (Curve, error) {
	var s Scratch
	return s.FIFOResidual(beta, alpha, theta)
}

// FIFOResidual is the package-level FIFOResidual computed in the
// scratch buffers: the same checks, the same float operations in the
// same order, and a result that aliases s until its next FIFOResidual
// call.
func (s *Scratch) FIFOResidual(beta, alpha Curve, theta float64) (Curve, error) {
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
	// alpha's breakpoints shifted right by theta, in increasing order
	// with points within Eps of the previous one dropped. The
	// difference is linear between consecutive samples. Theta is the
	// smallest point and both breakpoint runs are sorted, so a merge
	// yields exactly the sorted sequence.
	xs := append(slices.Grow(s.xs[:0], 1+len(beta.segs)+len(alpha.segs)), theta)
	bi, ai := 0, 0 // breakpoint abscissae increase: skip the leading ones
	for bi < len(beta.segs) && !(beta.segs[bi].X > theta+Eps) {
		bi++
	}
	for ai < len(alpha.segs) && !(alpha.segs[ai].X > Eps) {
		ai++
	}
	for bi < len(beta.segs) || ai < len(alpha.segs) {
		var x float64
		if bi < len(beta.segs) && (ai == len(alpha.segs) || beta.segs[bi].X <= alpha.segs[ai].X+theta) {
			x = beta.segs[bi].X
			bi++
		} else {
			x = alpha.segs[ai].X + theta
			ai++
		}
		if x > xs[len(xs)-1]+Eps {
			xs = append(xs, x)
		}
	}
	s.xs = xs
	// The curves are sampled with cursors, since the points only
	// increase. The convex difference attains its minimum at the first
	// sample with a non-negative outgoing slope (or the last sample);
	// the decreasing prefix is flattened to that minimum (the
	// non-decreasing closure from below). The flattened samples would
	// emit collinear pieces that normalization merges into the first,
	// so only the first is emitted, and values are evaluated from the
	// minimum on.
	bc, ac := cursor{segs: beta.segs}, cursor{segs: alpha.segs}
	iMin, slope := len(xs)-1, 0.0
	for i, x := range xs {
		slope = bc.slope(x) - ac.slope(x-theta)
		if slope >= -Eps {
			iMin = i
			break
		}
	}
	segs := slices.Grow(s.residual[:0], len(xs)+2)
	if theta > Eps {
		segs = append(segs, Segment{X: 0, Y: 0, Slope: 0})
	}
	x := xs[iMin]
	d := bc.eval(x) - ac.eval(x-theta)
	if iMin > 0 {
		segs = emitSample(segs, xs[0], d, 0, xs[1])
	}
	for i := iMin; i < len(xs); i++ {
		if i > iMin {
			x = xs[i]
			d = bc.eval(x) - ac.eval(x-theta)
			slope = bc.slope(x) - ac.slope(x-theta)
		}
		end := math.Inf(1)
		if i+1 < len(xs) {
			end = xs[i+1]
		}
		segs = emitSample(segs, x, d, slope, end)
	}
	s.residual = segs
	c := Curve{segs: dedupeSegs(segs)}
	c.normalize()
	return c, nil
}

// cursor evaluates a curve at non-decreasing abscissae. Each query
// advances a piece index instead of binary searching, and lands on the
// piece Eval and slopeAt would pick, so the values are theirs bit for
// bit; queries must not decrease.
type cursor struct {
	segs []Segment
	i, j int // current piece of eval and of slope
}

// eval is Curve.Eval at t.
func (c *cursor) eval(t float64) float64 {
	if t < 0 {
		return 0
	}
	for c.i+1 < len(c.segs) && !(c.segs[c.i+1].X > t) {
		c.i++
	}
	s := c.segs[c.i]
	if t == s.X {
		return s.Y
	}
	return s.Y + s.Slope*(t-s.X)
}

// slope is Curve.slopeAt at t.
func (c *cursor) slope(t float64) float64 {
	if t < 0 {
		return 0
	}
	for c.j+1 < len(c.segs) && !(c.segs[c.j+1].X > t+Eps) {
		c.j++
	}
	return c.segs[c.j].Slope
}

// emitSample appends the residual pieces of one sample of the
// difference: value d and outgoing slope at x, valid until end. The
// positive part starts at the difference's root when the sample lies
// below zero and rises within the interval.
func emitSample(segs []Segment, x, d, slope, end float64) []Segment {
	switch {
	case d <= Eps && slope <= Eps:
		return emitResidual(segs, x, 0, 0)
	case d <= Eps && slope > Eps:
		// Root inside the interval (or at its start).
		root := x - d/slope
		if root <= x+Eps {
			return emitResidual(segs, x, 0, slope)
		}
		segs = emitResidual(segs, x, 0, 0)
		if root < end {
			segs = emitResidual(segs, root, 0, slope)
		}
		return segs
	default: // d > 0
		return emitResidual(segs, x, d, slope)
	}
}

// emitResidual appends one piece of a FIFO residual curve, clamping
// negative values and slopes to zero. A piece starting within Eps of
// the previous one (past the origin) replaces it.
func emitResidual(segs []Segment, x, y, slope float64) []Segment {
	if y < 0 {
		y = 0
	}
	if slope < 0 {
		slope = 0
	}
	if n := len(segs); n > 0 && x <= segs[n-1].X+Eps && segs[n-1].X > Eps {
		segs[n-1] = Segment{X: segs[n-1].X, Y: y, Slope: slope}
		return segs
	}
	return append(segs, Segment{X: x, Y: y, Slope: slope})
}

// SubPos computes the positive part of a difference, (f - g)+, for a
// convex non-decreasing f through the origin and a concave g (both
// piecewise linear). The result is the convex non-decreasing "residual"
// curve used to build leftover service curves: f's slopes only grow and
// g's only shrink, so f - g crosses zero at most once and the positive
// part stays convex.
func SubPos(f, g Curve) (Curve, error) {
	if !f.IsConvex() {
		return Curve{}, fmt.Errorf("minplus: SubPos requires a convex minuend")
	}
	if !g.IsConcave() {
		return Curve{}, fmt.Errorf("minplus: SubPos requires a concave subtrahend")
	}
	var s Scratch
	xs := s.breakpoints(f, g)
	// Locate the zero crossing: the last interval where f-g goes from
	// <=0 to >0 contains at most one root.
	type pt struct{ x, d, slope float64 }
	var pts []pt
	for _, x := range xs {
		pts = append(pts, pt{x: x, d: f.Eval(x) - g.Eval(x), slope: f.slopeAt(x) - g.slopeAt(x)})
	}
	segs := []Segment{}
	emit := func(x, y, slope float64) {
		if y < 0 {
			y = 0
		}
		if slope < 0 {
			slope = 0
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
	// The clamping can produce tiny downward kinks from float noise;
	// validate via NewCurve to be safe.
	return NewCurve(c.segs)
}

// slopeAt returns the slope of the piece containing t (right-continuous).
func (c Curve) slopeAt(t float64) float64 {
	if t < 0 {
		return 0
	}
	i := sort.Search(len(c.segs), func(i int) bool { return c.segs[i].X > t+Eps }) - 1
	if i < 0 {
		i = 0
	}
	return c.segs[i].Slope
}

func shiftDown(c Curve, d float64) Curve {
	segs := c.Segments()
	for i := range segs {
		segs[i].Y -= d
		if segs[i].Y < 0 {
			segs[i].Y = 0
		}
	}
	return Curve{segs: segs}
}

func shiftUp(c Curve, d float64) Curve {
	segs := c.Segments()
	for i := range segs {
		segs[i].Y += d
	}
	return Curve{segs: segs}
}

func dedupeFloats(xs []float64) []float64 {
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || x > out[len(out)-1]+Eps {
			out = append(out, x)
		}
	}
	return out
}

func dedupeSegs(segs []Segment) []Segment {
	out := segs[:0]
	for _, s := range segs {
		if len(out) == 0 || s.X > out[len(out)-1].X+Eps {
			out = append(out, s)
		}
	}
	return out
}
