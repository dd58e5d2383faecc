package minplus

import (
	"math"
	"math/rand"
	"testing"
)

// thetaFracs is the theta grid of the NC engine's FIFO tier, as
// fractions of the aggregate delay bound.
var thetaFracs = [...]float64{0, 0.25, 0.5, 0.75, 1}

// sameCurveBits reports whether two curves have bitwise identical
// segments.
func sameCurveBits(a, b Curve) bool {
	if len(a.segs) != len(b.segs) {
		return false
	}
	for i := range a.segs {
		sa, sb := a.segs[i], b.segs[i]
		if math.Float64bits(sa.X) != math.Float64bits(sb.X) ||
			math.Float64bits(sa.Y) != math.Float64bits(sb.Y) ||
			math.Float64bits(sa.Slope) != math.Float64bits(sb.Slope) {
			return false
		}
	}
	return true
}

// sameErr reports whether two errors are both nil or carry the same
// message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkCross builds a cross-traffic envelope the way the NC engine's
// FIFO tier does, others + min(own, shaping), through s and through
// the reference kernel, and fails unless the minimum and the sum match
// bitwise. It returns both sums.
func checkCross(t *testing.T, s *Scratch, others, own, shaping Curve) (got, want Curve) {
	t.Helper()
	// The merged breakpoint list behind Add and Min (and SubPos and
	// VerticalDeviation) against the reference sort.
	xs, xsRef := s.breakpoints(others, own), mergeXs(others.breakpointXs(), own.breakpointXs())
	if len(xs) != len(xsRef) {
		t.Fatalf("breakpoints(%v, %v) = %v, reference %v", others, own, xs, xsRef)
	}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(xsRef[i]) {
			t.Fatalf("breakpoints(%v, %v) = %v, reference %v", others, own, xs, xsRef)
		}
	}
	m, mRef := s.Min(own, shaping), minRef(own, shaping)
	if !sameCurveBits(m, mRef) {
		t.Fatalf("Min(%v, %v) =\n  %v\nreference\n  %v", own, shaping, m, mRef)
	}
	got, want = s.Add(others, m), addRef(others, mRef)
	if !sameCurveBits(got, want) {
		t.Fatalf("Add(%v, %v) =\n  %v\nreference\n  %v", others, mRef, got, want)
	}
	if !sameCurveBits(m, mRef) {
		t.Fatalf("Add disturbed the minimum: %v, want %v", m, mRef)
	}
	return got, want
}

// checkScratchStep runs one residual + deviation step of a theta sweep
// through s and through the reference kernel and fails unless every
// result matches bitwise. cross is a sum returned by checkCross
// (crossRef the reference sum); it and the residual are compared again
// after the later calls, which must leave the scratch-backed curves
// intact.
func checkScratchStep(t *testing.T, s *Scratch, beta, cross, crossRef, env Curve, theta float64) {
	t.Helper()
	got, err := s.FIFOResidual(beta, cross, theta)
	want, wantErr := fifoResidualRef(beta, crossRef, theta)
	if !sameErr(err, wantErr) {
		t.Fatalf("FIFOResidual(%v, %v, %v): error %v, reference %v", beta, crossRef, theta, err, wantErr)
	}
	if err == nil {
		if !sameCurveBits(got, want) {
			t.Fatalf("FIFOResidual(%v, %v, %v) =\n  %v\nreference\n  %v", beta, crossRef, theta, got, want)
		}
		h := s.HorizontalDeviation(env, got)
		if wantH := horizontalDeviationRef(env, want); math.Float64bits(h) != math.Float64bits(wantH) {
			t.Fatalf("HorizontalDeviation(%v, %v) = %v, reference %v", env, got, h, wantH)
		}
		if !sameCurveBits(got, want) {
			t.Fatalf("HorizontalDeviation disturbed the residual: %v, want %v", got, want)
		}
	}
	if !sameCurveBits(cross, crossRef) {
		t.Fatalf("FIFOResidual disturbed the cross sum: %v, want %v", cross, crossRef)
	}
}

// TestScratchMatchesReference drives the scratch kernel the way the NC
// engine's FIFO tier does — one Scratch; per flow a cross-traffic sum,
// then a five-point theta grid over [0, D] — and pins it bitwise
// against the reference kernel over random shapes.
func TestScratchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var s Scratch
	for trial := 0; trial < 500; trial++ {
		beta, env := randomConvex(r), randomConcave(r)
		cross, crossRef := checkCross(t, &s, randomConcave(r), randomConcave(r), randomConcave(r))
		d := HorizontalDeviation(Add(env, crossRef), beta)
		if math.IsInf(d, 1) {
			d = 50
		}
		for _, frac := range thetaFracs {
			checkScratchStep(t, &s, beta, cross, crossRef, env, d*frac)
		}
	}
}

// TestScratchThetaSweepAllocatesNothing pins the point of the scratch
// kernel: once warmed, one flow's sweep — the cross-traffic envelope,
// then the five-theta residual + deviation loop — allocates nothing.
func TestScratchThetaSweepAllocatesNothing(t *testing.T) {
	beta, err := SubPos(RateLatency(100, 16), Plateau(12000))
	if err != nil {
		t.Fatal(err)
	}
	others := Add(LeakyBucket(20000, 2), Min(LeakyBucket(6000, 0.75), LeakyBucket(1000, 100)))
	own, shaping := LeakyBucket(12000, 2), LeakyBucket(8000, 100)
	env := LeakyBucket(4000, 0.25)
	d := HorizontalDeviation(Add(env, Add(others, Min(own, shaping))), beta)
	var s Scratch
	sink := 0.0
	sweep := func() {
		cross := s.Add(others, s.Min(own, shaping))
		for _, frac := range thetaFracs {
			r, err := s.FIFOResidual(beta, cross, d*frac)
			if err != nil {
				t.Fatal(err)
			}
			sink += s.HorizontalDeviation(env, r)
		}
	}
	sweep() // grow the buffers
	if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
		t.Errorf("warmed theta sweep allocates %v times per run, want 0", allocs)
	}
	if sink <= 0 {
		t.Errorf("sweep produced no positive deviation")
	}
}

// fuzzReader decodes curve parameters from fuzz input; an exhausted
// input reads as zeros.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// value returns a number in [0, max]: half the time on a coarse
// eight-step grid, so coordinates of different curves tie and the Eps
// deduplication runs, otherwise at 16-bit resolution.
func (r *fuzzReader) value(max float64) float64 {
	b := r.byte()
	if b&1 == 0 {
		return float64(b>>1%8) / 8 * max
	}
	return float64(uint16(b)<<8|uint16(r.byte())) / 65535 * max
}

// convex decodes a convex curve through the origin: one to four
// continuous pieces with non-decreasing slopes.
func (r *fuzzReader) convex() (Curve, bool) {
	segs := []Segment{{X: 0, Y: 0, Slope: r.value(50)}}
	for n := int(r.byte() % 4); n > 0; n-- {
		last := segs[len(segs)-1]
		x := last.X + 0.5 + r.value(40)
		segs = append(segs, Segment{X: x, Y: last.Y + last.Slope*(x-last.X), Slope: last.Slope + r.value(50)})
	}
	c, err := NewCurve(segs)
	return c, err == nil
}

// concave decodes a concave arrival curve: a burst, then one to four
// continuous pieces with non-increasing slopes. One input byte in 64
// adds an interior jump, which the kernel must reject.
func (r *fuzzReader) concave() (Curve, bool) {
	segs := []Segment{{X: 0, Y: r.value(5000), Slope: r.value(50)}}
	for n := int(r.byte() % 4); n > 0; n-- {
		last := segs[len(segs)-1]
		x := last.X + 0.5 + r.value(40)
		y := last.Y + last.Slope*(x-last.X)
		if r.byte()%64 == 63 {
			y += 100
		}
		segs = append(segs, Segment{X: x, Y: y, Slope: r.value(last.Slope)})
	}
	c, err := NewCurve(segs)
	return c, err == nil
}

// FuzzFIFOResidual is the differential target of the scratch kernel:
// each input decodes up to four steps of different sizes — a service
// curve, three concave curves combined into the cross traffic, an
// envelope and a theta — all run through one Scratch, so a stale tail
// or an aliasing bug in the reused buffers shows up as a bitwise
// mismatch against the reference kernel.
func FuzzFIFOResidual(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 9, 0, 2, 17, 4, 33, 1, 200, 7, 5, 12, 3, 90, 1, 1, 255, 40})
	f.Add([]byte{1, 0x81, 0x10, 3, 0x21, 0x40, 8, 0x61, 0x30, 2, 0xff, 0x01, 0x3f, 0x9, 0x11})
	f.Add([]byte{2, 4, 1, 6, 2, 2, 2, 2, 8, 1, 0, 3, 14, 0, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		var s Scratch
		for step := int(r.byte()%4) + 1; step > 0; step-- {
			beta, okB := r.convex()
			others, okO := r.concave()
			own, okA := r.concave()
			shaping, okS := r.concave()
			env, okE := r.concave()
			theta, thetaKind := r.value(200), r.byte()%8
			if !okB || !okO || !okA || !okS || !okE {
				continue
			}
			switch thetaKind {
			case 0:
				theta = beta.segs[len(beta.segs)-1].X // on a breakpoint
			case 1:
				theta = -theta - 1 // rejected
			}
			cross, crossRef := checkCross(t, &s, others, own, shaping)
			checkScratchStep(t, &s, beta, cross, crossRef, env, theta)
		}
	})
}
