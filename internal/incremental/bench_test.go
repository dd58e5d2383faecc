package incremental_test

import (
	"context"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/conformance"
	"afdx/internal/core"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// shrinkNet is the shrink-loop benchmark workload: an 8-switch
// industrial configuration with strong locality and mostly-unicast
// VLs, so a dropped VL invalidates a narrow cone of NC ports and the
// candidate sweep's A/B/A alternation exercises both cache
// generations. One op is a full 40-candidate ShrinkCtx minimisation
// of the grouping-tightens invariant; Cold and Incr differ only in
// Oracle.Incremental, and the shrinker's verdicts are identical
// either way (the caches are bit-exact), so the pair measures pure
// re-analysis wall time:
//
//	go test -run '^$' -bench '(ShrinkLoop|WhatIfStep)(Cold|Incr)$' -benchtime 5x -count 3 ./internal/incremental
func shrinkNet(b *testing.B) *afdx.Network {
	spec := configgen.DefaultSpec(42)
	spec.NumSwitches = 8
	spec.ESPerSwitch = 6
	spec.NumVLs = 120
	spec.LocalityBias = 0.9
	spec.BAGWeights = map[float64]int{1: 2, 2: 3, 4: 3, 8: 2}
	spec.FanoutWeights = map[int]int{1: 8, 2: 2}
	net, err := configgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func benchShrinkLoop(b *testing.B, incr bool) {
	net := shrinkNet(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := conformance.NewOracle()
		o.Incremental = incr
		if min := o.ShrinkCtx(ctx, net, conformance.InvGroupingTightens, 40); min == nil {
			b.Fatal("shrink returned no configuration")
		}
	}
}

func BenchmarkShrinkLoopCold(b *testing.B) { benchShrinkLoop(b, false) }
func BenchmarkShrinkLoopIncr(b *testing.B) { benchShrinkLoop(b, true) }

// The what-if step benchmarks measure one interactive iteration on a
// larger configuration: toggle one VL's BAG, then obtain both engine
// bounds plus the combined comparison for the mutated network. Cold
// does what a stateless tool must (rebuild the port graph, run both
// engines from scratch); Incr replays the same toggles through a
// warm Session, whose results are bit-identical by the incremental
// contract. The delta alternates doubling/restoring the BAG so every
// op changes real analysis inputs — no op is a pure no-op replay.
func whatIfNet(b *testing.B) *afdx.Network {
	spec := configgen.DefaultSpec(7)
	spec.NumSwitches = 8
	spec.ESPerSwitch = 6
	spec.NumVLs = 150
	spec.LocalityBias = 0.9
	spec.FanoutWeights = map[int]int{1: 8, 2: 2}
	net, err := configgen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func toggleDelta(net *afdx.Network, baseBAG float64, i int) incremental.Delta {
	bag := baseBAG * 2
	if i%2 == 1 {
		bag = baseBAG
	}
	return incremental.Delta{Op: incremental.OpSetBAG, VL: net.VLs[0].ID, BAGMs: bag}
}

func BenchmarkWhatIfStepCold(b *testing.B) {
	net := whatIfNet(b)
	base := net.VLs[0].BAGMs
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := toggleDelta(net, base, i)
		net.VLs[0].BAGMs = d.BAGMs
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			b.Fatal(err)
		}
		nc, err := netcalc.AnalyzeCtx(ctx, pg, netcalc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		tr, err := trajectory.AnalyzeCtx(ctx, pg, trajectory.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Combine(pg, nc, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhatIfStepIncr(b *testing.B) {
	net := whatIfNet(b)
	base := net.VLs[0].BAGMs
	ctx := context.Background()
	sess, err := incremental.NewSession(net, incremental.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Analyze(ctx); err != nil {
		b.Fatal(err) // warm the caches: the session exists before the loop
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.WhatIf(ctx, toggleDelta(net, base, i)); err != nil {
			b.Fatal(err)
		}
	}
}
