package trajectory

import (
	"context"
	"fmt"
	"io"

	"afdx/internal/afdx"
)

// Explanation decomposes one path's trajectory bound into its terms —
// the human-readable witness a certification reviewer checks.
type Explanation struct {
	Path         afdx.PathID
	DelayUs      float64
	CriticalT    float64
	Interference []InterferenceTerm
	Transitions  []TransitionTerm
	LatencyUs    float64
}

// InterferenceTerm is one interfering flow's contribution at the
// critical offset.
type InterferenceTerm struct {
	VL        string
	FirstPort afdx.PortID
	InputLink string // "" for source-port flows
	Frames    int
	CUs       float64
	AUs       float64
	// GroupCapped reports whether the serialization cap absorbed part of
	// this flow's group contribution.
	GroupCapped bool
}

// TransitionTerm is one "counted twice" packet bound.
type TransitionTerm struct {
	Port afdx.PortID
	CUs  float64
}

// Explain recomputes one path's bound and returns its decomposition.
// The sum of the parts equals the bound:
//
//	DelayUs = sum(interference, with group caps) + sum(transitions)
//	        + LatencyUs - CriticalT
func Explain(pg *afdx.PortGraph, pid afdx.PathID, opts Options) (*Explanation, error) {
	return ExplainCtx(context.Background(), pg, pid, opts)
}

// ExplainCtx is Explain with the caller's context threaded through the
// underlying analysis and decomposition: cancellation propagates into
// the busy-period and candidate loops, and an obs registry or tracer on
// ctx observes the runs. (Explain used to rebuild its analyzer on
// context.Background(), silently dropping both.)
func ExplainCtx(ctx context.Context, pg *afdx.PortGraph, pid afdx.PathID, opts Options) (*Explanation, error) {
	res, err := AnalyzeCtx(ctx, pg, opts)
	if err != nil {
		return nil, err
	}
	det, ok := res.Details[pid]
	if !ok {
		return nil, fmt.Errorf("trajectory: unknown path %v", pid)
	}
	a, err := newAnalyzer(ctx, pg, opts, nil)
	if err != nil {
		return nil, err
	}
	ports := pg.PathPorts(pid)
	sc := a.flat.getScratch()
	defer a.flat.putScratch(sc)
	if err := a.interferenceSet(ctx, sc, pg.VL(pid.VL), ports, nil); err != nil {
		return nil, err
	}
	ex := &Explanation{Path: pid, DelayUs: det.DelayUs, CriticalT: det.CriticalT}
	t := det.CriticalT
	// sc.inter is in VL-ID order, the order the terms are listed in.
	// Serialization groups are keyed by (first shared port, input link),
	// i.e. by the interferer's path position and port-local group.
	type gk struct{ pos, grp int32 }
	raw, maxC, ratio, size := map[gk]float64{}, map[gk]float64{}, map[gk]float64{}, map[gk]int{}
	for _, it := range sc.inter {
		fp := sc.fps[it.pos]
		ex.Interference = append(ex.Interference, InterferenceTerm{
			VL:        a.flat.vls[it.vl].ID,
			FirstPort: fp.id,
			InputLink: fp.grpPrev[it.grp],
			Frames:    frameCount(t+it.aUs, it.bagUs),
			CUs:       it.cUs,
			AUs:       it.aUs,
		})
		k := gk{it.pos, it.grp}
		raw[k] += it.cUs
		if it.cUs > maxC[k] {
			maxC[k] = it.cUs
		}
		ratio[k] = it.serRatio
		size[k]++
	}
	// Mark group-capped terms: compare each group's raw first-frame
	// total against its serialization cap.
	if opts.Grouping {
		for i, it := range sc.inter {
			k := gk{it.pos, it.grp}
			serialized := ex.Interference[i].InputLink != "" || size[k] > 1
			if serialized && raw[k] > maxC[k]+t*ratio[k] {
				ex.Interference[i].GroupCapped = true
			}
		}
	}
	from, to := 1, len(ports)
	if opts.DeltaAtFirstNode {
		from, to = 0, len(ports)-1
	}
	if opts.SharedTransition {
		for k := 0; k+1 < len(ports); k++ {
			ex.Transitions = append(ex.Transitions, TransitionTerm{
				Port: ports[k+1], CUs: a.maxSharedFrameTime(ports[k], ports[k+1]),
			})
		}
	} else {
		for k := from; k < to; k++ {
			ex.Transitions = append(ex.Transitions, TransitionTerm{
				Port: ports[k], CUs: a.maxFrameTimeAt(ports[k]),
			})
		}
	}
	for _, h := range ports {
		ex.LatencyUs += pg.Ports[h].LatencyUs
	}
	return ex, nil
}

// Render writes the explanation as text.
func (ex *Explanation) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "trajectory bound for %v: %.2f us (critical offset t = %.2f us)\n",
		ex.Path, ex.DelayUs, ex.CriticalT); err != nil {
		return err
	}
	fmt.Fprintln(w, "interference (counted once, at first shared port):")
	for _, it := range ex.Interference {
		capped := ""
		if it.GroupCapped {
			capped = "  [serialization cap active]"
		}
		link := it.InputLink
		if link == "" {
			link = "(source)"
		}
		fmt.Fprintf(w, "  %-8s at %-10v via %-8s: %d frame(s) x %.2f us (A=%.2f)%s\n",
			it.VL, it.FirstPort, link, it.Frames, it.CUs, it.AUs, capped)
	}
	fmt.Fprintln(w, "transition terms (busy-period bridging packets):")
	for _, tr := range ex.Transitions {
		fmt.Fprintf(w, "  at %-10v: %.2f us\n", tr.Port, tr.CUs)
	}
	_, err := fmt.Fprintf(w, "technological latencies: %.2f us\n", ex.LatencyUs)
	return err
}
