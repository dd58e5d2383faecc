package afdx

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// PortID identifies an output port by the directed link it transmits on:
// the port of node From that feeds node To.
type PortID struct {
	From string
	To   string
}

func (p PortID) String() string { return p.From + "->" + p.To }

// PortFlow records one VL crossing a port, together with the node the VL
// arrives from ("" when the port belongs to the VL's source end system).
// A multicast VL crosses a shared port once even if several of its paths
// use it (frames are replicated at branch points, downstream).
type PortFlow struct {
	VL   *VirtualLink
	Prev string
	// Next lists the ports immediately downstream of this one on the
	// VL's paths, in path order without repeats: one entry per branch
	// of a multicast tree, none at the last hop. BuildPortGraph fills it
	// in its path walk; the engines propagate envelopes along it.
	Next []*Port
}

// Port is one FIFO output port with the flows that compete on it.
type Port struct {
	ID PortID
	// RateBitsPerUs is the transmission rate of the outgoing link.
	RateBitsPerUs float64
	// LatencyUs is the technological latency of the port.
	LatencyUs float64
	// Flows lists the VLs multiplexed on the port, sorted by VL ID.
	Flows []PortFlow
}

// IsSourcePort reports whether the port belongs to an end system.
func (p *Port) IsSourcePort() bool { return p.Flows[0].Prev == "" }

// FlowByVL returns the PortFlow for the given VL ID, or nil.
func (p *Port) FlowByVL(id string) *PortFlow {
	for i := range p.Flows {
		if p.Flows[i].VL.ID == id {
			return &p.Flows[i]
		}
	}
	return nil
}

// InputGroups partitions the port's flows by the input link they arrive
// from (the paper's grouping/serialization technique). Flows emitted by
// the local node (source end-system ports) each form their own group key
// "" and are returned together under that key: at a source port every VL
// is shaped independently by the end system, so serialization between
// them is not exploitable and callers treat the "" group as ungrouped.
func (p *Port) InputGroups() map[string][]PortFlow {
	g := map[string][]PortFlow{}
	for _, f := range p.Flows {
		g[f.Prev] = append(g[f.Prev], f)
	}
	return g
}

// PortGraph is the derived analysable view of a Network: its output
// ports, the path of each (VL, destination) pair expressed as a port
// sequence, and a feed-forward (topological) order on ports.
type PortGraph struct {
	Net   *Network
	Ports map[PortID]*Port
	// Order is a topological order of the ports: if any VL crosses port
	// q immediately before port p, then q precedes p in Order.
	Order []PortID
	paths map[PathID][]PortID
	// vls indexes the network's VLs by ID. Network.VL is a linear scan
	// (the Network is a mutable configuration object); the engines sit
	// in per-path loops and need the O(1) lookup the frozen graph can
	// afford.
	vls map[string]*VirtualLink

	// ranks memoizes Ranks(): the grouping is derived data, queried by
	// both the parallel schedulers and the observability layer, and the
	// graph is immutable once built.
	ranksOnce sync.Once
	ranks     [][]PortID

	// vlOrd memoizes VLOrder/VLOrdinal: the dense, ID-sorted VL index
	// the flattened engine hot paths use in place of string-keyed maps.
	vlOrdOnce sync.Once
	vlOrder   []*VirtualLink
	vlOrd     map[string]int
}

// BuildPortGraph derives the port-level view of the network. It returns
// an error when the configuration is invalid or when the port dependency
// graph is cyclic (holistic analyses require feed-forward networks, as do
// the configurations studied in the paper).
func BuildPortGraph(n *Network, mode ValidationMode) (*PortGraph, error) {
	if err := n.Validate(mode); err != nil {
		return nil, err
	}
	// Size the hot maps up front: the number of (VL, port) incidences
	// bounds both the member table and the port count, and rebuilding
	// the graph is on the critical path of every what-if candidate.
	incidences, npaths := 0, 0
	for _, v := range n.VLs {
		npaths += len(v.Paths)
		for _, path := range v.Paths {
			if len(path) > 1 {
				incidences += len(path) - 1
			}
		}
	}
	pg := &PortGraph{
		Net:   n,
		Ports: make(map[PortID]*Port, incidences),
		paths: make(map[PathID][]PortID, npaths),
		vls:   make(map[string]*VirtualLink, len(n.VLs)),
	}
	for _, v := range n.VLs {
		pg.vls[v.ID] = v
	}
	type memberKey struct {
		port PortID
		vl   string
	}
	members := make(map[memberKey]int, incidences) // -> index in port.Flows
	// A VL's downstream hops (flow, next port) are collected in path
	// order while its paths are walked; then each flow's Next list is
	// laid out as one capacity-capped window of a shared slab.
	type hop struct {
		port *Port // the flow's port
		fi   int   // the flow's index in port.Flows
		next *Port
	}
	var hops []hop
	var nextSlab []*Port
	const slabChunk = 1024
	for _, v := range n.VLs {
		hops = hops[:0]
		for pi, path := range v.Paths {
			seq := make([]PortID, 0, len(path)-1)
			var up *Port // the previous port of the path, the VL's flow there at upFi
			upFi := 0
			for k := 0; k+1 < len(path); k++ {
				id := PortID{From: path[k], To: path[k+1]}
				seq = append(seq, id)
				prev := ""
				if k > 0 {
					prev = path[k-1]
				}
				port := pg.Ports[id]
				mk := memberKey{port: id, vl: v.ID}
				fi, ok := members[mk]
				if ok {
					if old := port.Flows[fi].Prev; old != prev {
						return nil, fmt.Errorf("afdx: VL %s enters port %s from both %q and %q",
							v.ID, id, old, prev)
					}
				} else {
					if port == nil {
						lat := n.Params.SwitchLatencyUs
						if n.IsEndSystem(path[k]) {
							lat = n.Params.SourceLatencyUs
						}
						port = &Port{
							ID:            id,
							RateBitsPerUs: n.LinkRateBitsPerUs(path[k], path[k+1]),
							LatencyUs:     lat,
						}
						pg.Ports[id] = port
					}
					fi = len(port.Flows)
					members[mk] = fi
					port.Flows = append(port.Flows, PortFlow{VL: v, Prev: prev})
				}
				if up != nil {
					hops = append(hops, hop{port: up, fi: upFi, next: port})
				}
				up, upFi = port, fi
			}
			pg.paths[PathID{VL: v.ID, PathIdx: pi}] = seq
		}
		for i, h := range hops {
			f := &h.port.Flows[h.fi]
			if f.Next != nil {
				continue // laid out at the flow's first hop
			}
			if cap(nextSlab)-len(nextSlab) < len(hops)-i {
				nextSlab = make([]*Port, 0, max(slabChunk, len(hops)-i))
			}
			first := len(nextSlab)
			for _, g := range hops[i:] {
				if g.port == h.port && !slices.Contains(nextSlab[first:], g.next) {
					nextSlab = append(nextSlab, g.next)
				}
			}
			f.Next = nextSlab[first:len(nextSlab):len(nextSlab)]
		}
	}
	for _, p := range pg.Ports {
		slices.SortFunc(p.Flows, func(a, b PortFlow) int { return strings.Compare(a.VL.ID, b.VL.ID) })
	}
	order, err := pg.topoOrder()
	if err != nil {
		return nil, err
	}
	pg.Order = order
	return pg, nil
}

// PathPorts returns the port sequence of one (VL, destination) path.
func (pg *PortGraph) PathPorts(id PathID) []PortID { return pg.paths[id] }

// VL returns the virtual link with the given ID, or nil. Unlike
// Network.VL this is a constant-time lookup against the index frozen
// at graph-build time.
func (pg *PortGraph) VL(id string) *VirtualLink { return pg.vls[id] }

// VLOrder returns the network's VLs sorted by ID (memoized). The slice
// index is the VL's dense ordinal: engines that replace string-keyed
// map lookups with array indexing in their hot loops key those arrays
// by this ordinal, and because the order is the ID sort every analysis
// already iterates in, sorting by ordinal is sorting by VL ID.
func (pg *PortGraph) VLOrder() []*VirtualLink {
	pg.buildVLOrd()
	return pg.vlOrder
}

// VLOrdinal returns the dense index of the VL in VLOrder, or -1 when
// the ID names no VL of the network.
func (pg *PortGraph) VLOrdinal(id string) int {
	pg.buildVLOrd()
	if i, ok := pg.vlOrd[id]; ok {
		return i
	}
	return -1
}

func (pg *PortGraph) buildVLOrd() {
	pg.vlOrdOnce.Do(func() {
		pg.vlOrder = append([]*VirtualLink(nil), pg.Net.VLs...)
		slices.SortFunc(pg.vlOrder, func(a, b *VirtualLink) int { return strings.Compare(a.ID, b.ID) })
		pg.vlOrd = make(map[string]int, len(pg.vlOrder))
		for i, v := range pg.vlOrder {
			pg.vlOrd[v.ID] = i
		}
	})
}

// topoOrder computes a deterministic topological order of the port
// dependency graph (port q feeds port p when some VL crosses q then p).
func (pg *PortGraph) topoOrder() ([]PortID, error) {
	succ := make(map[PortID][]PortID, len(pg.Ports))
	indeg := make(map[PortID]int, len(pg.Ports))
	for id := range pg.Ports {
		indeg[id] = 0
	}
	seen := make(map[[2]PortID]bool, len(pg.Ports))
	for _, seq := range pg.paths {
		for k := 0; k+1 < len(seq); k++ {
			e := [2]PortID{seq[k], seq[k+1]}
			if seen[e] {
				continue
			}
			seen[e] = true
			succ[seq[k]] = append(succ[seq[k]], seq[k+1])
			indeg[seq[k+1]]++
		}
	}
	// Kahn's algorithm with lexicographic tie-breaking for determinism.
	var ready []PortID
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sortPortIDs(ready)
	var order []PortID
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		next := succ[id]
		sortPortIDs(next)
		var newly []PortID
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				newly = append(newly, s)
			}
		}
		if len(newly) > 0 {
			// ready stays sorted throughout; merging the (sorted) newly
			// released ports preserves the lexicographic tie-breaking
			// without re-sorting the whole queue per step.
			sortPortIDs(newly)
			ready = mergePortIDs(ready, newly)
		}
	}
	if len(order) != len(pg.Ports) {
		return nil, fmt.Errorf("afdx: cyclic port dependencies (%d of %d ports ordered); the holistic analyses require a feed-forward configuration",
			len(order), len(pg.Ports))
	}
	return order, nil
}

// Ranks groups the ports into dependency ranks: rank 0 holds the ports
// no other port feeds, and every port's upstream feeders sit in
// strictly lower ranks (the rank is the longest feeder chain above the
// port). Ports within one rank are mutually independent, so a holistic
// analysis that has finished every rank below r may analyse all of
// rank r's ports concurrently; ranks are returned in dependency order
// and each rank is sorted canonically for deterministic scheduling.
func (pg *PortGraph) Ranks() [][]PortID {
	pg.ranksOnce.Do(func() { pg.ranks = pg.computeRanks() })
	return pg.ranks
}

func (pg *PortGraph) computeRanks() [][]PortID {
	pred := map[PortID][]PortID{}
	seen := map[[2]PortID]bool{}
	for _, seq := range pg.paths {
		for k := 0; k+1 < len(seq); k++ {
			e := [2]PortID{seq[k], seq[k+1]}
			if seen[e] {
				continue
			}
			seen[e] = true
			pred[seq[k+1]] = append(pred[seq[k+1]], seq[k])
		}
	}
	// Order is topological, so every feeder's rank is known when its
	// successor is visited.
	rank := make(map[PortID]int, len(pg.Ports))
	maxRank := 0
	for _, id := range pg.Order {
		r := 0
		for _, q := range pred[id] {
			if rank[q]+1 > r {
				r = rank[q] + 1
			}
		}
		rank[id] = r
		if r > maxRank {
			maxRank = r
		}
	}
	out := make([][]PortID, maxRank+1)
	for _, id := range pg.Order {
		out[rank[id]] = append(out[rank[id]], id)
	}
	for _, ids := range out {
		sortPortIDs(ids)
	}
	return out
}

func comparePortIDs(a, b PortID) int {
	if c := strings.Compare(a.From, b.From); c != 0 {
		return c
	}
	return strings.Compare(a.To, b.To)
}

func sortPortIDs(ids []PortID) { slices.SortFunc(ids, comparePortIDs) }

// SortPortIDs orders port identifiers by (From, To) — the canonical
// iteration order whenever port results gathered from a map must be
// consumed deterministically (DET001/DET003).
func SortPortIDs(ids []PortID) { sortPortIDs(ids) }

// mergePortIDs merges two sorted slices into one sorted slice.
func mergePortIDs(a, b []PortID) []PortID {
	out := make([]PortID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if comparePortIDs(a[i], b[j]) <= 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// FlowsSharingPath returns the set of VLs whose routing shares at least
// one output port with the given path (including the path's own VL), with
// for each such VL the first shared port along the given path. This is
// the interference set of the Trajectory approach.
func (pg *PortGraph) FlowsSharingPath(id PathID) map[string]PortID {
	shared := map[string]PortID{}
	for _, pid := range pg.paths[id] {
		for _, f := range pg.Ports[pid].Flows {
			if _, ok := shared[f.VL.ID]; !ok {
				shared[f.VL.ID] = pid
			}
		}
	}
	return shared
}

// MinPathDelayUs returns the physical floor of a path's end-to-end
// delay: the sum, over its output ports, of the technological latency
// plus the transmission time of a minimum-size frame — the delay of a
// frame crossing an entirely idle network. Worst-case bounds minus this
// floor give the certification jitter figure.
func (pg *PortGraph) MinPathDelayUs(id PathID) (float64, error) {
	seq, ok := pg.paths[id]
	if !ok {
		return 0, fmt.Errorf("afdx: unknown path %v", id)
	}
	vl := pg.VL(id.VL)
	total := 0.0
	for _, pid := range seq {
		p := pg.Ports[pid]
		total += p.LatencyUs + vl.CMinUs(p.RateBitsPerUs)
	}
	return total, nil
}

// Links lists the distinct directed links (output ports) the VL's paths
// cross, in path order of first crossing.
func (v *VirtualLink) Links() []PortID {
	seen := map[PortID]bool{}
	var out []PortID
	for _, path := range v.Paths {
		for k := 0; k+1 < len(path); k++ {
			id := PortID{From: path[k], To: path[k+1]}
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// LinkLoads returns, for every directed link some VL path crosses, the
// aggregate long-term contract rate Σ s_max/BAG in bits/us, computed
// from the paths directly — no derived port graph needed, so it works
// on configurations the structural checks reject. It is the batch form
// of the bookkeeping configgen's admission gate maintains incrementally
// while placing VLs, and feeds the AFDX013 lint analyzer. VLs with a
// non-positive BAG or frame size are skipped — the contract
// diagnostics (AFDX004/AFDX005) own those defects.
func (n *Network) LinkLoads() map[PortID]float64 {
	loads := map[PortID]float64{}
	for _, vl := range n.VLs {
		if vl == nil || vl.BAGMs <= 0 || vl.SMaxBytes <= 0 {
			continue
		}
		rho := vl.RhoBitsPerUs()
		for _, p := range vl.Links() {
			loads[p] += rho
		}
	}
	return loads
}

// UtilizationReport lists, for every port, the aggregate long-term rate
// of its flows relative to the link rate. Ports above 1.0 are unstable
// and make every worst-case analysis diverge.
func (pg *PortGraph) UtilizationReport() map[PortID]float64 {
	u := map[PortID]float64{}
	for id, p := range pg.Ports {
		sum := 0.0
		for _, f := range p.Flows {
			sum += f.VL.RhoBitsPerUs()
		}
		u[id] = sum / p.RateBitsPerUs
	}
	return u
}
