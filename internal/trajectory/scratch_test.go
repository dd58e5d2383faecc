package trajectory

import (
	"context"
	"maps"
	"strings"
	"testing"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/netcalc"
)

// Tests of the flat engine's per-path scratch buffers: the ordinal-order
// emission of the interference set and the clean-on-return contract of
// putScratch (see the ownership rules in flat.go).

type namedGraph struct {
	name string
	pg   *afdx.PortGraph
}

// scratchTestGraphs returns the sample configuration and a generated
// multi-hop configuration large enough that its ordinal bitset spans
// several words.
func scratchTestGraphs(t *testing.T) []namedGraph {
	t.Helper()
	spec := configgen.DefaultSpec(3)
	spec.NumVLs = 200
	gen, err := configgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []namedGraph
	for _, net := range []*afdx.Network{afdx.Figure2Config(), gen} {
		pg, err := afdx.BuildPortGraph(net, afdx.Strict)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedGraph{net.Name, pg})
	}
	return out
}

// TestInterferenceSetOrdinalOrder pins the emitted interference set:
// strictly ordinal-ascending, and entry for entry the reference's
// ID-sorted list, on configurations where a later port of a path
// brings in lower ordinals than an earlier one (so the first-occurrence
// order is not already sorted).
func TestInterferenceSetOrdinalOrder(t *testing.T) {
	ctx := context.Background()
	for _, g := range scratchTestGraphs(t) {
		name, pg := g.name, g.pg
		a, err := newAnalyzer(ctx, pg, DefaultOptions(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		unsorted := 0
		for _, pid := range pg.Net.AllPaths() {
			ports := pg.PathPorts(pid)
			vl := pg.VL(pid.VL)
			// First-occurrence order, as the build loop visits the flows.
			var firstSeen []int32
			seen := map[int32]bool{}
			for _, h := range ports {
				for _, ord := range a.flat.ports[h].vls {
					if !seen[ord] {
						seen[ord] = true
						firstSeen = append(firstSeen, ord)
					}
				}
			}
			for i := 1; i < len(firstSeen); i++ {
				if firstSeen[i] < firstSeen[i-1] {
					unsorted++
					break
				}
			}
			ref, err := a.interferenceSetRef(ctx, vl, ports, nil)
			if err != nil {
				t.Fatalf("%s %v: reference: %v", name, pid, err)
			}
			sc := a.flat.getScratch()
			if err := a.interferenceSet(ctx, sc, vl, ports, nil); err != nil {
				t.Fatalf("%s %v: %v", name, pid, err)
			}
			if len(sc.inter) != len(ref) || len(sc.inter) != len(firstSeen) {
				t.Fatalf("%s %v: %d interferers, reference %d, first-occurrence walk %d", name, pid, len(sc.inter), len(ref), len(firstSeen))
			}
			for i, it := range sc.inter {
				if i > 0 && it.vl <= sc.inter[i-1].vl {
					t.Fatalf("%s %v: ordinal %d at %d follows %d", name, pid, it.vl, i, sc.inter[i-1].vl)
				}
				r := ref[i]
				if a.flat.vls[it.vl].ID != r.vl.ID || sc.fps[it.pos].id != r.first ||
					it.cUs != r.cUs || it.aUs != r.aUs || it.serRatio != r.serRatio {
					t.Fatalf("%s %v: entry %d: flat {%s %s c=%x a=%x r=%x} vs reference {%s %s c=%x a=%x r=%x}", name, pid, i,
						a.flat.vls[it.vl].ID, sc.fps[it.pos].id, it.cUs, it.aUs, it.serRatio,
						r.vl.ID, r.first, r.cUs, r.aUs, r.serRatio)
				}
			}
			a.flat.putScratch(sc)
		}
		if unsorted == 0 {
			t.Errorf("%s: no path brings in a lower ordinal at a later port; the order check is vacuous", name)
		}
	}
}

// TestScratchCleanAfterFailedInterferenceSet pins the clean-on-return
// contract on the error path: an interference-set build that fails
// part-way (a deleted NC prefix bound, after other interferers are
// already stamped) must leave no seen stamp or ordinal bit behind, so
// every later path analysed through the same analyzer — and its pooled
// scratches — matches a fresh analysis bit for bit.
func TestScratchCleanAfterFailedInterferenceSet(t *testing.T) {
	ctx := context.Background()
	for _, g := range scratchTestGraphs(t) {
		name, pg := g.name, g.pg
		opts := DefaultOptions()
		opts.Parallel = 1
		fresh, err := AnalyzeCtx(ctx, pg, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, err := newAnalyzer(ctx, pg, opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Victim: a multi-hop path and a VL first met at its last port,
		// so the build stamps the earlier ports' interferers first.
		var victim afdx.PathID
		var missing netcalc.FlowPortKey
		found := false
		for _, pid := range pg.Net.AllPaths() {
			ports := pg.PathPorts(pid)
			if len(ports) < 2 {
				continue
			}
			earlier := map[string]bool{}
			for _, h := range ports[:len(ports)-1] {
				for _, f := range pg.Ports[h].Flows {
					earlier[f.VL.ID] = true
				}
			}
			last := ports[len(ports)-1]
			for _, f := range pg.Ports[last].Flows {
				if !earlier[f.VL.ID] {
					victim, missing, found = pid, netcalc.FlowPortKey{VL: f.VL.ID, Port: last}, true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatalf("%s: no path meets a new VL at its last port", name)
		}
		a.ncPrefix = maps.Clone(a.ncPrefix)
		delete(a.ncPrefix, missing)
		if err := a.prepare(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantErr := "no NC prefix bound for VL " + missing.VL

		// The failing build, on a scratch held directly: it must have
		// stamped entries before failing, and putScratch must clear them.
		sc := a.flat.getScratch()
		err = a.interferenceSet(ctx, sc, pg.VL(victim.VL), pg.PathPorts(victim), nil)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: victim %v: got %v, want %q", name, victim, err, wantErr)
		}
		if len(sc.inter) == 0 {
			t.Fatalf("%s: victim %v failed before stamping any interferer", name, victim)
		}
		a.flat.putScratch(sc)
		for ord, k := range sc.seen {
			if k != -1 {
				t.Fatalf("%s: seen[%d] = %d after putScratch", name, ord, k)
			}
		}
		for w, word := range sc.ordSet {
			if word != 0 {
				t.Fatalf("%s: ordinal bitset word %d = %#x after putScratch", name, w, word)
			}
		}

		// Every path, each right after another failing victim run, so
		// the pooled scratch it draws has just come back from an error.
		ok := 0
		for _, pid := range pg.Net.AllPaths() {
			if _, err := a.analyzePath(ctx, victim); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Fatalf("%s: victim %v: got %v, want %q", name, victim, err, wantErr)
			}
			det, err := a.analyzePath(ctx, pid)
			if err != nil {
				// Paths whose interference set needs the deleted bound
				// fail the same way; nothing else may.
				if !strings.Contains(err.Error(), wantErr) {
					t.Fatalf("%s: path %v: %v", name, pid, err)
				}
				continue
			}
			if want := fresh.Details[pid]; det != want {
				t.Errorf("%s: path %v after a failed build: %+v, fresh analysis %+v", name, pid, det, want)
			}
			ok++
		}
		if ok == 0 {
			t.Fatalf("%s: every path needs the deleted prefix bound", name)
		}
	}
}
