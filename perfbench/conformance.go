package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	iafdx "afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/conformance"
	"afdx/internal/core"
	"afdx/internal/exact"
	"afdx/internal/netcalc"
	"afdx/internal/serve"
	"afdx/internal/sim"
	"afdx/internal/trajectory"
)

// familySize is the number of small configurations the conformance
// workload cycles through.
const familySize = 64

// familyCampaignSeed is the campaign seed the family is drawn under:
// the default of afdx-conformance -seed.
const familyCampaignSeed = 1

// conf is the conformance workload: each op generates the next
// configuration of a family of small networks and checks the oracle's
// full invariant lattice on it.
//
// The family is the first familySize configurations of the campaign
// with seed familyCampaignSeed, the same for every --seed; --seed
// permutes their order and seeds the oracle's randomized simulation.
// A family drawn from --seed would not be steady: the check's cost per
// configuration is heavy-tailed (the exact search's grid grows
// geometrically with the BAG spread, so one tiny configuration in a
// few hundred costs seconds), and the few hundred configurations one
// run covers put 0.13 to 0.4 of spread between seeds on the mean and
// p90 figures. A fixed family cycled about ten times per run keeps the
// same mix of costs in every run.
type conf struct {
	specs  []configgen.Spec
	plain  *conformance.Oracle
	hooked *conformance.Oracle
	// cur is the tracer of the op in progress, read by hooked's engine
	// wrappers.
	cur     *tracer
	checked int
}

func newConformance(cfg config) (*conf, error) {
	c := &conf{plain: conformance.NewOracle(), hooked: conformance.NewOracle()}
	for _, o := range []*conformance.Oracle{c.plain, c.hooked} {
		o.ParityWorkers, o.SimSeed = cfg.workers, cfg.seed
	}
	for _, i := range rand.New(rand.NewSource(cfg.seed)).Perm(familySize) {
		spec := familySpec(familyCampaignSeed, i)
		if _, err := configgen.Generate(spec); err != nil {
			return nil, fmt.Errorf("family member %d: %w", i, err)
		}
		c.specs = append(c.specs, spec)
	}
	real := conformance.DefaultEngines()
	c.hooked.Engines = conformance.Engines{
		NC: func(ctx context.Context, pg *iafdx.PortGraph, o netcalc.Options) (*netcalc.Result, error) {
			return traced(c.cur, "netcalc", func() (*netcalc.Result, error) { return real.NC(ctx, pg, o) })
		},
		Trajectory: func(ctx context.Context, pg *iafdx.PortGraph, o trajectory.Options) (*trajectory.Result, error) {
			return traced(c.cur, "trajectory", func() (*trajectory.Result, error) { return real.Trajectory(ctx, pg, o) })
		},
		Sim: func(ctx context.Context, pg *iafdx.PortGraph, o sim.Config) (*sim.Result, error) {
			return traced(c.cur, "sim", func() (*sim.Result, error) { return real.Sim(ctx, pg, o) })
		},
		Exact: func(ctx context.Context, pg *iafdx.PortGraph, o exact.Options) (*exact.Result, error) {
			return traced(c.cur, "exact", func() (*exact.Result, error) { return real.Exact(ctx, pg, o) })
		},
	}
	return c, nil
}

// familySpec is configuration i of the conformance campaign with the
// given seed, drawn exactly as the campaign draws it: 2–4 switches,
// 1–3 end systems per switch, 3–24 VLs, and every fourth configuration
// tiny (2–4 VLs) so the exact search runs.
func familySpec(campaignSeed int64, i int) configgen.Spec {
	s := campaignSeed + int64(i)*7919
	rng := rand.New(rand.NewSource(s))
	spec := configgen.DefaultSpec(s)
	spec.Name = fmt.Sprintf("conformance-%d-%d", campaignSeed, i)
	spec.NumSwitches = 2 + rng.Intn(3)
	spec.ESPerSwitch = 1 + rng.Intn(3)
	spec.NumVLs = 3 + rng.Intn(22)
	if i%4 == 0 {
		spec.NumVLs = 2 + rng.Intn(3)
	}
	spec.MaxUtilization = 0.3 + 0.6*rng.Float64()
	spec.LocalityBias = 0.7 * rng.Float64()
	spec.BAGWeights = map[float64]int{1: 2, 2: 3, 4: 3, 8: 2}
	spec.FanoutWeights = map[int]int{1: 5, 2: 3, 3: 2}
	return spec
}

func (c *conf) op(i int, tr *tracer) (sample, error) {
	spec := c.specs[i%len(c.specs)]
	o := c.plain
	if tr != nil {
		o, c.cur = c.hooked, tr
	}
	sw := startWatch()
	net, err := traced(tr, "configgen.generate", func() (*iafdx.Network, error) { return configgen.Generate(spec) })
	if err != nil {
		return sample{}, err
	}
	vs, err := traced(tr, "conformance.check", func() ([]conformance.Violation, error) {
		return o.CheckCtx(tr.context(), net)
	})
	d, cpu := sw.elapsed()
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", spec.Name, err)
	}
	if len(vs) > 0 {
		return sample{}, fmt.Errorf("%s: %d violation(s), first: %v", spec.Name, len(vs), vs[0])
	}
	c.checked++
	return sample{kind: kindOp, ms: d, cpuMs: cpu, tracedMs: d}, nil
}

// finish reports the family's combined bounds: a digest and the mean
// bounds, from one cold comparison per member outside the timed loop.
func (c *conf) finish() ([]string, error) {
	h := fnv.New64a()
	var all []serve.PathBound
	for _, spec := range c.specs {
		net, err := configgen.Generate(spec)
		if err != nil {
			return nil, err
		}
		pg, err := iafdx.BuildPortGraph(net, iafdx.Strict)
		if err != nil {
			return nil, err
		}
		cmp, err := core.CompareCtx(context.Background(), pg)
		if err != nil {
			return nil, err
		}
		bounds := pathBounds(cmp)
		if err := checkCombined(bounds); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		data, err := json.Marshal(bounds)
		if err != nil {
			return nil, err
		}
		h.Write(data)
		all = append(all, bounds...)
	}
	return []string{
		fmt.Sprintf("conformance configs_checked=%d violations=0 family=%d paths=%d digest=%016x", c.checked, len(c.specs), len(all), h.Sum64()),
		tightness(all),
	}, nil
}

func (c *conf) layers(a *layerAgg, m map[string]float64) {
	m["configgen.generate_ms"] = a.selfMs("configgen.generate")
	m["conformance.check_ms"] = a.totalMs("conformance.check")
	m["conformance.other_ms"] = a.selfMs("conformance.check")
	engineLayers(a, m, "netcalc.ms", "trajectory.ms")
	m["sim.ms"] = a.selfMs("sim")
	m["sim.events_processed"] = a.counter("sim.events_processed")
	m["exact.ms"] = a.selfMs("exact")
	m["exact.evaluations"] = a.counter("exact.evaluations")
}

func (c *conf) close() {}
