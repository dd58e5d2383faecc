package afdx

import (
	"slices"
	"testing"
)

func TestBuildPortGraphFigure2(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	// Ports: e1->S1, e2->S1, e3->S2, e4->S2, e5->S3, S1->S3, S2->S3,
	// S3->e6, S3->e7.
	if got := len(pg.Ports); got != 9 {
		t.Fatalf("got %d ports, want 9", got)
	}
	s3e6 := pg.Ports[PortID{"S3", "e6"}]
	if s3e6 == nil {
		t.Fatal("port S3->e6 missing")
	}
	if got := len(s3e6.Flows); got != 4 {
		t.Errorf("S3->e6 should carry 4 VLs, got %d", got)
	}
	groups := s3e6.InputGroups()
	if len(groups) != 2 {
		t.Fatalf("S3->e6 should have 2 input-link groups, got %d: %v", len(groups), groups)
	}
	if got := len(groups["S1"]); got != 2 {
		t.Errorf("group from S1 should hold v1,v2, got %d flows", got)
	}
	if got := len(groups["S2"]); got != 2 {
		t.Errorf("group from S2 should hold v3,v4, got %d flows", got)
	}
	if !pg.Ports[PortID{"e1", "S1"}].IsSourcePort() {
		t.Error("e1->S1 should be a source port")
	}
	if s3e6.IsSourcePort() {
		t.Error("S3->e6 is not a source port")
	}
}

func TestRanks(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	ranks := pg.Ranks()
	rankOf := map[PortID]int{}
	count := 0
	for r, ids := range ranks {
		for i, id := range ids {
			rankOf[id] = r
			count++
			if i > 0 {
				prev := ids[i-1]
				if prev.From > id.From || (prev.From == id.From && prev.To >= id.To) {
					t.Errorf("rank %d not canonically sorted: %v before %v", r, prev, id)
				}
			}
		}
	}
	if count != len(pg.Ports) {
		t.Fatalf("ranks cover %d ports, want %d", count, len(pg.Ports))
	}
	// Every feeder edge must climb at least one rank.
	for _, pid := range pg.Net.AllPaths() {
		seq := pg.PathPorts(pid)
		for k := 0; k+1 < len(seq); k++ {
			if rankOf[seq[k]] >= rankOf[seq[k+1]] {
				t.Errorf("path %v: feeder %v (rank %d) must be below %v (rank %d)",
					pid, seq[k], rankOf[seq[k]], seq[k+1], rankOf[seq[k+1]])
			}
		}
	}
	// Figure 2: source ports are rank 0, S1->S3 / S2->S3 rank 1, the two
	// S3 egress ports rank 2.
	if len(ranks) != 3 {
		t.Fatalf("figure 2 has 3 port ranks, got %d", len(ranks))
	}
	if rankOf[PortID{"S3", "e6"}] != 2 || rankOf[PortID{"S1", "S3"}] != 1 {
		t.Errorf("unexpected ranks: %v", rankOf)
	}
}

func TestPathPortsSequence(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	seq := pg.PathPorts(PathID{VL: "v1", PathIdx: 0})
	want := []PortID{{"e1", "S1"}, {"S1", "S3"}, {"S3", "e6"}}
	if len(seq) != len(want) {
		t.Fatalf("port sequence %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("port sequence %v, want %v", seq, want)
		}
	}
}

func TestTopologicalOrder(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[PortID]int{}
	for i, id := range pg.Order {
		pos[id] = i
	}
	if len(pos) != len(pg.Ports) {
		t.Fatalf("order covers %d ports, want %d", len(pos), len(pg.Ports))
	}
	for _, pid := range pg.Net.AllPaths() {
		seq := pg.PathPorts(pid)
		for k := 0; k+1 < len(seq); k++ {
			if pos[seq[k]] >= pos[seq[k+1]] {
				t.Errorf("path %v: port %v should precede %v in topological order",
					pid, seq[k], seq[k+1])
			}
		}
	}
}

func TestCyclicPortDependenciesRejected(t *testing.T) {
	n := &Network{
		Name:       "cyclic",
		Params:     DefaultParams(),
		EndSystems: []string{"a", "b", "c", "d"},
		Switches:   []string{"X", "Y"},
		VLs: []*VirtualLink{
			{ID: "f1", Source: "a", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
				Paths: [][]string{{"a", "X", "Y", "c"}}},
			{ID: "f2", Source: "c2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
				Paths: [][]string{{"c2", "Y", "X", "b"}}},
		},
	}
	// f1 uses X->Y then Y->c; f2 uses Y->X then X->b: no cycle yet.
	n.EndSystems = append(n.EndSystems, "c2")
	if _, err := BuildPortGraph(n, Strict); err != nil {
		t.Fatalf("two opposite transits are not cyclic at port level: %v", err)
	}
	// Add flows closing the loop: X->Y feeds Y->X' and vice versa needs
	// a chain X->Y ... back to X->Y. Build it with two relay flows.
	n.EndSystems = append(n.EndSystems, "a2", "d2")
	n.Switches = append(n.Switches, "Z")
	n.VLs = append(n.VLs,
		&VirtualLink{ID: "f3", Source: "a2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"a2", "X", "Y", "Z", "d"}}},
		&VirtualLink{ID: "f4", Source: "d2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"d2", "Z", "Y", "X", "b"}}},
	)
	// Port cycle: (X->Y) -> (Y->Z) via f3, (Y->Z)? f4 gives (Z->Y) -> (Y->X).
	// Still no cycle; force one with a flow Y->X->... wait; simplest true
	// cycle: f5 crossing Y then X then Y is illegal (node repeat). Use a
	// triangle of switches instead.
	n.Switches = append(n.Switches, "W")
	n.EndSystems = append(n.EndSystems, "p", "q", "r", "p2", "q2", "r2")
	n.VLs = append(n.VLs,
		&VirtualLink{ID: "g1", Source: "p", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"p", "X", "W", "Z", "q"}}}, // X->W feeds W->Z... need W
	)
	// Triangle cycle: (X->W)->(W->Z) [g1], (W->Z)->(Z->X) [g2], (Z->X)->(X->W) [g3].
	n.VLs = append(n.VLs,
		&VirtualLink{ID: "g2", Source: "q2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"q2", "W", "Z", "X", "r"}}},
		&VirtualLink{ID: "g3", Source: "r2", BAGMs: 4, SMaxBytes: 500, SMinBytes: 100,
			Paths: [][]string{{"r2", "Z", "X", "W", "p2"}}},
	)
	if _, err := BuildPortGraph(n, Strict); err == nil {
		t.Fatal("expected cyclic port dependency graph to be rejected")
	}
}

func TestFlowsSharingPath(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	shared := pg.FlowsSharingPath(PathID{VL: "v1", PathIdx: 0})
	if len(shared) != 4 {
		t.Fatalf("v1 shares ports with v1..v4, got %v", shared)
	}
	if shared["v2"] != (PortID{"S1", "S3"}) {
		t.Errorf("v2 first meets v1 at S1->S3, got %v", shared["v2"])
	}
	if shared["v3"] != (PortID{"S3", "e6"}) {
		t.Errorf("v3 first meets v1 at S3->e6, got %v", shared["v3"])
	}
	if _, ok := shared["v5"]; ok {
		t.Error("v5 does not share any output port with v1")
	}
}

func TestMulticastSharedPortCountedOnce(t *testing.T) {
	pg, err := BuildPortGraph(Figure1Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	// v6 is multicast with shared prefix e1->S1: the port e1->S1 must list
	// v6 exactly once.
	p := pg.Ports[PortID{"e1", "S1"}]
	count := 0
	for _, f := range p.Flows {
		if f.VL.ID == "v6" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("multicast VL v6 listed %d times on shared port, want 1", count)
	}
}

// walkNextPorts lists the ports immediately downstream of id on the
// paths of vl by rescanning every path — the per-incidence walk the
// NC engine made before PortFlow.Next recorded the lists once.
func walkNextPorts(pg *PortGraph, vl *VirtualLink, id PortID) []PortID {
	var out []PortID
	seen := map[PortID]bool{}
	for pi := range vl.Paths {
		seq := pg.PathPorts(PathID{VL: vl.ID, PathIdx: pi})
		for k := 0; k+1 < len(seq); k++ {
			if seq[k] == id && !seen[seq[k+1]] {
				seen[seq[k+1]] = true
				out = append(out, seq[k+1])
			}
		}
	}
	return out
}

// TestPortFlowNextMatchesPathWalk pins the downstream lists recorded by
// BuildPortGraph against the path rescan, entry for entry and in
// order, on the multicast Figure 1 configuration and on Figure 2.
func TestPortFlowNextMatchesPathWalk(t *testing.T) {
	for _, net := range []*Network{Figure1Config(), Figure2Config()} {
		pg, err := BuildPortGraph(net, Strict)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range pg.Order {
			for _, f := range pg.Ports[id].Flows {
				if got, want := nextIDs(f), walkNextPorts(pg, f.VL, id); !slices.Equal(got, want) {
					t.Errorf("%s: VL %s at %v: Next %v, path walk %v", net.Name, f.VL.ID, id, got, want)
				}
			}
		}
	}
	pg, err := BuildPortGraph(Figure1Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	// v6 branches at S1 towards e7 (via S3) and e8 (via S4).
	want := []PortID{{"S1", "S3"}, {"S1", "S4"}}
	if got := nextIDs(*pg.Ports[PortID{"e1", "S1"}].FlowByVL("v6")); !slices.Equal(got, want) {
		t.Errorf("v6 at e1->S1: Next %v, want %v", got, want)
	}
	if got := pg.Ports[PortID{"S3", "e7"}].FlowByVL("v6").Next; len(got) != 0 {
		t.Errorf("v6 at its last hop S3->e7: Next %v, want none", got)
	}
	for _, f := range pg.Ports[PortID{"e1", "S1"}].FlowByVL("v6").Next {
		if f != pg.Ports[f.ID] {
			t.Errorf("Next entry %v is not the graph's port", f.ID)
		}
	}
}

// nextIDs lists the IDs of a flow's downstream ports.
func nextIDs(f PortFlow) []PortID {
	var ids []PortID
	for _, p := range f.Next {
		ids = append(ids, p.ID)
	}
	return ids
}

func TestUtilizationReport(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	u := pg.UtilizationReport()
	// S3->e6 carries 4 VLs of rho = 1 bit/us each on a 100 bit/us link.
	if got, want := u[PortID{"S3", "e6"}], 0.04; got != want {
		t.Errorf("utilization of S3->e6 = %g, want %g", got, want)
	}
	for id, v := range u {
		if v <= 0 || v >= 1 {
			t.Errorf("port %v utilization %g out of (0,1)", id, v)
		}
	}
}

// TestLinkLoadsMatchesUtilizationReport checks the two load views agree:
// Network.LinkLoads (consumed by the configuration generator's admission
// gate and the AFDX013 analyzer) divided by the link rate must equal the
// port graph's UtilizationReport on every port the graph derives.
func TestLinkLoadsMatchesUtilizationReport(t *testing.T) {
	net := Figure2Config()
	pg, err := BuildPortGraph(net, Strict)
	if err != nil {
		t.Fatal(err)
	}
	u := pg.UtilizationReport()
	loads := net.LinkLoads()
	if len(loads) != len(u) {
		t.Fatalf("LinkLoads covers %d links, UtilizationReport %d ports", len(loads), len(u))
	}
	for id, util := range u {
		got := loads[id] / pg.Ports[id].RateBitsPerUs
		if diff := got - util; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("link %v: LinkLoads utilization %g, UtilizationReport %g", id, got, util)
		}
	}
}

func TestVLEntersPortFromTwoLinksRejected(t *testing.T) {
	n := Figure2Config()
	// Give v1 a second path that re-enters S3->e6 from another direction.
	n.VLs[0].Paths = append(n.VLs[0].Paths, []string{"e1", "S1", "S3", "e6"})
	// Identical path: allowed (counted once). Now corrupt it:
	n.VLs[0].Paths[1] = []string{"e1", "S1", "S2", "S3", "e6"}
	if _, err := BuildPortGraph(n, Strict); err == nil {
		t.Fatal("expected rejection: v1 reaches S3 from both S1 and S2")
	}
}

func TestMinPathDelayUs(t *testing.T) {
	pg, err := BuildPortGraph(Figure2Config(), Strict)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pg.MinPathDelayUs(PathID{VL: "v1", PathIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d != 168 { // 3 ports * (16 us latency + 40 us min-frame time)
		t.Errorf("floor of v1 = %g, want 168", d)
	}
	if _, err := pg.MinPathDelayUs(PathID{VL: "zz", PathIdx: 9}); err == nil {
		t.Error("unknown path should error")
	}
}
