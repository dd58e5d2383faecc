//go:build !race

package afdx_test

// The full-size trajectory reproducibility check and the full-size NC
// golden digests. The race detector multiplies the industrial
// analyses' runtime by an order of magnitude, so this file is excluded
// from -race runs (the race build tag is set by the detector); the
// concurrency itself is still exercised under -race by the scaled-down
// variants in determinism_test.go.

import (
	"testing"

	"afdx"
)

// TestIndustrialTrajectoryBitIdenticalParallel checks the path-parallel
// trajectory engine against the sequential one on the full seed-1
// industrial configuration (>5000 paths).
func TestIndustrialTrajectoryBitIdenticalParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial analysis is expensive")
	}
	net, err := afdx.Generate(afdx.DefaultGeneratorSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	opts := afdx.DefaultTrajectoryOptions()
	opts.Parallel = 1
	seq, err := afdx.AnalyzeTrajectory(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 0 // all CPUs
	par, err := afdx.AnalyzeTrajectory(pg, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectoryResults(t, "industrial trajectory", seq, par)
}

// TestIndustrialNCGoldenPinnedValues pins the NC engine's output on
// the full seed-1 industrial configuration, per analysis tier, as an
// FNV-64a digest of renderNCLines (see TestNCGoldenPinnedValues), at
// workers 1 and all CPUs.
func TestIndustrialNCGoldenPinnedValues(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial analysis is expensive")
	}
	net, err := afdx.Generate(afdx.DefaultGeneratorSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	want := map[afdx.NCAnalysis]uint64{
		afdx.NCAnalysisTFA:  0xc92f0a6b2fef93f0,
		afdx.NCAnalysisWCNC: 0x7d2d94418bb97a39,
		afdx.NCAnalysisFIFO: 0xe453e8eb2dda990c,
	}
	for _, tier := range afdx.NCAnalyses() {
		for _, workers := range []int{1, 0} {
			res, err := afdx.AnalyzeNC(pg, ncTierOptions(tier, workers))
			if err != nil {
				t.Fatalf("industrial %v: %v", tier, err)
			}
			if got := ncDigest(res); got != want[tier] {
				t.Errorf("industrial %v (workers=%d): digest %#x drifted from the pinned digest %#x over %d incidences",
					tier, workers, got, want[tier], len(res.FlowDelays))
			}
		}
	}
}
