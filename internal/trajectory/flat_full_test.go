//go:build !race

package trajectory

import (
	"context"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// TestFlatMatchesReferenceConfiggenFull is the full 100-seed
// differential sweep of the flat hot path against the reference engine
// (grouped and ungrouped, workers 1 and N, bit-identical PathDetails).
// It runs the reference engine 400 times, so like the full-size
// determinism tests it is compiled out under the race detector; the
// race-instrumented tier keeps the 10-seed slice in flat_test.go.
func TestFlatMatchesReferenceConfiggenFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential sweep skipped in -short mode")
	}
	testConfiggenSeeds(t, 11, 100)
}

// TestAnalyzePortSeqFlatAllocatesNothing pins the point of the pooled
// scratch: once the buffers have grown, bounding a path of the
// industrial configuration allocates nothing — the interference set,
// its ordinal-order emission, the group partition and the candidate
// merge all run in scratch-owned memory. sync.Pool drops items at
// random under the race detector, hence the build tag.
func TestAnalyzePortSeqFlatAllocatesNothing(t *testing.T) {
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := afdx.BuildPortGraph(net, afdx.Strict)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := newAnalyzer(ctx, pg, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := pg.Net.AllPaths()
	type seq struct {
		vl    *afdx.VirtualLink
		ports []afdx.PortID
	}
	seqs := make([]seq, len(paths))
	for i, pid := range paths {
		seqs[i] = seq{pg.VL(pid.VL), pg.PathPorts(pid)}
	}
	sink := 0.0
	run := func() {
		for _, s := range seqs {
			det, err := a.analyzePortSeqFlat(ctx, s.vl, s.ports, nil)
			if err != nil {
				t.Fatal(err)
			}
			sink += det.DelayUs
		}
	}
	run() // grow the scratch buffers, fill the busy-period memos
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Errorf("warmed analyzePortSeqFlat over %d paths allocates %v times per sweep, want 0", len(seqs), allocs)
	}
	if sink <= 0 {
		t.Errorf("no positive path bound")
	}
}
