package trajectory

import (
	"context"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// The flattening benchmark pair: the industrial configuration analysed
// by the reference (pre-flattening) engine — Cold — and by the flat hot
// path — Fast. Both produce bit-identical results (see flat_test.go),
// so their ratio is pure hot-loop wall time:
//
//	go test -run '^$' -bench 'TrajectoryIndustrial' -benchtime 2x -count 3 ./internal/trajectory

func industrialPG(b *testing.B) *afdx.PortGraph {
	b.Helper()
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		b.Fatal(err)
	}
	return pg
}

func benchIndustrial(b *testing.B, workers int, reference bool) {
	pg := industrialPG(b)
	opts := DefaultOptions()
	opts.Parallel = workers
	run := AnalyzeCtx
	if reference {
		run = analyzeReference
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background(), pg, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.PathDelays) == 0 {
			b.Fatal("no paths analysed")
		}
	}
}

func BenchmarkTrajectoryIndustrialSeqCold(b *testing.B) { benchIndustrial(b, 1, true) }
func BenchmarkTrajectoryIndustrialSeqFast(b *testing.B) { benchIndustrial(b, 1, false) }
func BenchmarkTrajectoryIndustrialParCold(b *testing.B) { benchIndustrial(b, 0, true) }
func BenchmarkTrajectoryIndustrialParFast(b *testing.B) { benchIndustrial(b, 0, false) }
