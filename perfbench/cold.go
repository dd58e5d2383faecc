package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	iafdx "afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core"
	"afdx/internal/lint"
	"afdx/internal/netcalc"
	"afdx/internal/serve"
	"afdx/internal/trajectory"
)

// cold is the cold-industrial and cold-fifo workload: each op answers
// one cold afdx-bounds question on the industrial configuration, from
// the configuration's JSON bytes to the JSON-encoded per-path bounds.
type cold struct {
	cfgJSON []byte
	ncOpts  netcalc.Options
	trOpts  trajectory.Options
	// digest is the bounds digest of the first answer; every later
	// answer must match it.
	digest uint64
	last   []serve.PathBound
}

func newCold(cfg config, fifo bool) (*cold, error) {
	net, err := industrial(cfg.seed)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(net)
	if err != nil {
		return nil, fmt.Errorf("encoding the industrial configuration: %w", err)
	}
	c := &cold{cfgJSON: data, ncOpts: netcalc.DefaultOptions(), trOpts: trajectory.DefaultOptions()}
	c.ncOpts.Parallel, c.trOpts.Parallel = cfg.workers, cfg.workers
	if fifo {
		c.ncOpts.Analysis = netcalc.AnalysisFIFO
	}
	return c, nil
}

// industrialSeed is the generator seed of the industrial
// configuration: the one afdx-gen, the experiments and the golden
// digests use.
const industrialSeed = 1

// industrial is the industrial configuration with its VLs in an order
// drawn from the seed. The generator's output size varies with its
// seed (4694 to 6140 paths over seeds 1 to 16) and the cold costs scale
// with it (FIFO NC 115 to 187 ms), which would spread every latency
// figure by about 0.3 between benchmark seeds. The VL order changes
// the file the analyser reads but not one bit of the bounds.
func industrial(seed int64) (*iafdx.Network, error) {
	net, err := configgen.Generate(configgen.DefaultSpec(industrialSeed))
	if err != nil {
		return nil, fmt.Errorf("generating the industrial configuration: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(net.VLs), func(i, j int) { net.VLs[i], net.VLs[j] = net.VLs[j], net.VLs[i] })
	return net, nil
}

func (c *cold) op(i int, tr *tracer) (sample, error) {
	sw := startWatch()
	out, bounds, err := c.answer(tr.context(), tr)
	d, cpu := sw.elapsed()
	if err != nil {
		return sample{}, err
	}
	if err := checkCombined(bounds); err != nil {
		return sample{}, err
	}
	h := digest(out)
	if c.last == nil {
		c.digest = h
	} else if h != c.digest {
		return sample{}, fmt.Errorf("op %d: bounds digest %016x, first answer had %016x", i, h, c.digest)
	}
	c.last = bounds
	return sample{kind: kindOp, ms: d, cpuMs: cpu, tracedMs: d}, nil
}

// answer is one cold afdx-bounds question.
func (c *cold) answer(ctx context.Context, tr *tracer) ([]byte, []serve.PathBound, error) {
	net, err := traced(tr, "afdx.decode", func() (*iafdx.Network, error) {
		return iafdx.DecodeJSON(bytes.NewReader(c.cfgJSON))
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := traced(tr, "lint", func() (*lint.Report, error) { return preflight(net) }); err != nil {
		return nil, nil, err
	}
	pg, err := traced(tr, "afdx.port_graph", func() (*iafdx.PortGraph, error) {
		return iafdx.BuildPortGraph(net, iafdx.Strict)
	})
	if err != nil {
		return nil, nil, err
	}
	nc, err := traced(tr, "netcalc", func() (*netcalc.Result, error) { return netcalc.AnalyzeCtx(ctx, pg, c.ncOpts) })
	if err != nil {
		return nil, nil, err
	}
	trr, err := traced(tr, "trajectory", func() (*trajectory.Result, error) {
		return trajectory.AnalyzeCtx(ctx, pg, c.trOpts)
	})
	if err != nil {
		return nil, nil, err
	}
	cmp, err := traced(tr, "core.combine", func() (*core.Comparison, error) { return core.Combine(pg, nc, trr) })
	if err != nil {
		return nil, nil, err
	}
	bounds := pathBounds(cmp)
	out, err := traced(tr, "afdx.encode", func() ([]byte, error) { return json.Marshal(bounds) })
	return out, bounds, err
}

// preflight is afdx-bounds' lint gate.
func preflight(net *iafdx.Network) (*lint.Report, error) {
	rep := lint.Run(net, lint.DefaultOptions())
	if rep.HasErrors() {
		return rep, fmt.Errorf("lint pre-flight: %d error(s)", rep.Errors)
	}
	return rep, nil
}

func (c *cold) finish() ([]string, error) {
	if c.last == nil {
		return nil, errors.New("no answer to check")
	}
	return []string{
		fmt.Sprintf("bounds paths=%d digest=%016x (constant across ops)", len(c.last), c.digest),
		tightness(c.last),
	}, nil
}

func (c *cold) layers(a *layerAgg, m map[string]float64) {
	m["afdx.decode_ms"] = a.selfMs("afdx.decode")
	m["lint.ms"] = a.selfMs("lint")
	m["afdx.port_graph_ms"] = a.selfMs("afdx.port_graph")
	m["afdx.port_graph_allocs"] = a.allocs("afdx.port_graph")
	engineLayers(a, m, "netcalc.ms", "trajectory.ms")
	m["core.combine_ms"] = a.selfMs("core.combine")
	m["afdx.encode_ms"] = a.selfMs("afdx.encode")
}

func (c *cold) close() {}

// pathBounds renders a comparison as the served wire bound list, in
// canonical (VL, path index) order.
func pathBounds(cmp *core.Comparison) []serve.PathBound {
	ids := make([]iafdx.PathID, 0, len(cmp.PerPath))
	for pid := range cmp.PerPath {
		ids = append(ids, pid)
	}
	iafdx.SortPathIDs(ids)
	out := make([]serve.PathBound, 0, len(ids))
	for _, pid := range ids {
		pc := cmp.PerPath[pid]
		out = append(out, serve.PathBound{
			Path:         pid.String(),
			NCUs:         pc.NCUs,
			TrajectoryUs: pc.TrajectoryUs,
			BestUs:       pc.BestUs,
			MinUs:        pc.MinUs,
			JitterUs:     pc.JitterUs,
		})
	}
	return out
}

// checkCombined checks that every combined bound is the smaller of
// the NC and trajectory bounds, bit for bit.
func checkCombined(bounds []serve.PathBound) error {
	for _, b := range bounds {
		if want := min(b.NCUs, b.TrajectoryUs); b.BestUs != want {
			return fmt.Errorf("path %s: combined bound %v != min(NC %v, trajectory %v)", b.Path, b.BestUs, b.NCUs, b.TrajectoryUs)
		}
	}
	return nil
}

// digest is FNV-1a 64 over an encoded answer.
func digest(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// tightness summarises bounds as their mean NC, trajectory and
// combined values (summed in canonical path order).
func tightness(bounds []serve.PathBound) string {
	var nc, tr, best float64
	for _, b := range bounds {
		nc += b.NCUs
		tr += b.TrajectoryUs
		best += b.BestUs
	}
	n := float64(len(bounds))
	return fmt.Sprintf("tightness mean_us nc=%.4f trajectory=%.4f combined=%.4f", nc/n, tr/n, best/n)
}
