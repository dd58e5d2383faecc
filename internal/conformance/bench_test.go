package conformance

import "testing"

// Oracle-throughput benchmarks: one op is a 16-configuration campaign
// (the same family either way — the report is deterministic across
// worker counts, so Seq vs Par measures pure wall time).
func benchCampaign(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := Run(Options{N: 16, Seed: 42, Parallel: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("benchmark campaign found violations: %v", rep.FailingInvariants())
		}
		b.ReportMetric(rep.ConfigsPerSec, "configs/s")
	}
}

func BenchmarkConformanceOracleSeq(b *testing.B) { benchCampaign(b, 1) }
func BenchmarkConformanceOraclePar(b *testing.B) { benchCampaign(b, 0) }
