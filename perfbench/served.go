package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	iafdx "afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
	"afdx/internal/serve"
	"afdx/internal/trajectory"
)

// served is the served-whatif workload: one client on a keep-alive
// loopback HTTP connection to an in-process afdx-serve handler with
// the daemon's default options, driving one session on the industrial
// configuration with the request mix of newMix.
type served struct {
	base    *iafdx.Network
	srv     *serve.Server
	hs      *http.Server
	done    chan struct{}
	client  *http.Client
	baseURL string
	session string
	mix     *mix
	// basePaths is the "paths" section of the upload's answer; every
	// commit that returns to the uploaded state must answer it again.
	basePaths []byte
	nPaths    int
	seq       int
	reverts   int
	workers   int
	sample    *reservoir
	// replay re-derives every answer in process (traced runs only).
	replay *replay
}

// sampleSize is how many answers the run re-derives cold after the
// timed loop.
const sampleSize = 4

func newServed(cfg config) (*served, error) {
	base, err := industrial(cfg.seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &served{
		base: base,
		srv:  serve.New(serve.DefaultOptions()),
		done: make(chan struct{}),
		// A transport of its own, so close drops exactly its connection.
		client:  &http.Client{Transport: &http.Transport{}},
		baseURL: "http://" + ln.Addr().String(),
		mix:     newMix(base, cfg.seed),
		sample:  newReservoir(cfg.seed, sampleSize),
		workers: cfg.workers,
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	if err := s.upload(); err != nil {
		s.close()
		return nil, err
	}
	if cfg.trace {
		if s.replay, err = newReplay(base, s.session, cfg.workers); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// upload opens the session and keeps the base answer.
func (s *served) upload() error {
	cfg, err := json.Marshal(s.base)
	if err != nil {
		return fmt.Errorf("encoding the industrial configuration: %w", err)
	}
	status, body, err := s.post("/v1/sessions", cfg)
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if status != http.StatusCreated {
		return fmt.Errorf("upload: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var resp serve.AnalysisResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("upload answer: %w", err)
	}
	if err := checkCombined(resp.Paths); err != nil {
		return fmt.Errorf("upload answer: %w", err)
	}
	s.session, s.nPaths, s.basePaths = resp.Session, len(resp.Paths), pathsSection(body)
	return nil
}

func (s *served) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *served) op(i int, tr *tracer) (sample, error) {
	st := s.mix.next()
	req, err := json.Marshal(serve.DeltaRequest{Deltas: []string{st.cmd}})
	if err != nil {
		return sample{}, err
	}
	verb, kind := "whatif", kindPeek
	if st.commit {
		verb, kind = "apply", kindCommit
	}
	sw := startWatch()
	status, body, err := s.post("/v1/sessions/"+s.session+"/"+verb, req)
	d, cpu := sw.elapsed()
	if err != nil {
		return sample{}, fmt.Errorf("op %d %s %q: %w", i, verb, st.cmd, err)
	}
	if status != http.StatusOK {
		return sample{}, fmt.Errorf("op %d %s %q: HTTP %d: %s", i, verb, st.cmd, status, bytes.TrimSpace(body))
	}
	s.seq++
	if n := bytes.Count(body, []byte(`"path":`)); n != s.nPaths {
		return sample{}, fmt.Errorf("op %d: answer carries %d paths, want %d", i, n, s.nPaths)
	}
	if st.revert {
		s.reverts++
		if !bytes.Equal(pathsSection(body), s.basePaths) {
			return sample{}, fmt.Errorf("op %d: commit %q returned to the uploaded configuration but its bounds differ from the upload's", i, st.cmd)
		}
	}
	s.sample.offer(recorded{step: st, body: body})
	smp := sample{kind: kind, ms: d, cpuMs: cpu, tracedMs: d, responseBytes: len(body)}
	if s.replay != nil {
		r0 := time.Now()
		want, err := s.replay.do(tr, st, s.seq)
		smp.tracedMs = since(r0)
		if err != nil {
			return sample{}, fmt.Errorf("op %d replay: %w", i, err)
		}
		if !bytes.Equal(body, want) {
			return sample{}, fmt.Errorf("op %d %s %q: HTTP answer differs from its in-process replay", i, verb, st.cmd)
		}
		smp.wireMs = d - smp.tracedMs
	}
	return smp, nil
}

// finish re-derives the sampled answers cold: serve.Script.VerifyCold
// rebuilds each answer's configuration from the upload and the deltas
// committed before it, runs both engines with no session and no cache,
// and compares every bound exactly.
func (s *served) finish() ([]string, error) {
	for _, r := range s.sample.items {
		var got serve.AnalysisResponse
		if err := json.Unmarshal(r.body, &got); err != nil {
			return nil, err
		}
		sc := &serve.Script{Net: s.base}
		for _, c := range r.step.state {
			sc.Steps = append(sc.Steps, serve.Step{Commit: true, Deltas: []string{c}})
		}
		sc.Steps = append(sc.Steps, serve.Step{Commit: r.step.commit, Deltas: []string{r.step.cmd}, Response: &got})
		bad, err := sc.VerifyCold(context.Background(), iafdx.Strict, s.workers)
		if err != nil {
			return nil, err
		}
		if len(bad) > 0 {
			return nil, fmt.Errorf("served answer to %q (after %v) vs its cold re-derivation: %d bound(s) differ, first: %v", r.step.cmd, r.step.state, len(bad), bad[0])
		}
	}
	var base serve.AnalysisResponse
	if err := json.Unmarshal(append([]byte("{"), s.basePaths...), &base); err != nil {
		return nil, fmt.Errorf("decoding the upload's bounds: %w", err)
	}
	return []string{
		fmt.Sprintf("bounds paths=%d upload_digest=%016x commits_returning_to_upload=%d (all identical to the upload) cold_resampled=%d (bit-identical)",
			s.nPaths, digest(s.basePaths), s.reverts, len(s.sample.items)),
		tightness(base.Paths),
	}, nil
}

func (s *served) layers(a *layerAgg, m map[string]float64) {
	m["afdx.clone_ms"] = a.selfMs("afdx.clone")
	m["incremental.apply_ms"] = a.selfMs("incremental.apply")
	m["afdx.port_graph_ms"] = a.selfMs("afdx.port_graph")
	m["afdx.port_graph_allocs"] = a.allocs("afdx.port_graph")
	engineLayers(a, m, "netcalc.cached_ms", "trajectory.cached_ms")
	m["netcalc.port_recompute_ratio"] = a.ratio("netcalc.incr_port_recomputes", "netcalc.incr_port_hits")
	m["trajectory.path_recompute_ratio"] = a.ratio("trajectory.incr_path_recomputes", "trajectory.incr_path_hits")
	m["core.combine_ms"] = a.selfMs("core.combine")
	m["serve.encode_ms"] = a.selfMs("serve.encode")
}

func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	s.srv.Drain(ctx)   //nolint:errcheck // best effort at teardown
	s.hs.Shutdown(ctx) //nolint:errcheck // best effort at teardown
	<-s.done
}

// pathsSection is an answer from its "paths" key to the end: the
// bounds, without the per-round session, seq and delta fields.
func pathsSection(body []byte) []byte {
	i := bytes.Index(body, []byte(`"paths":`))
	if i < 0 {
		return nil
	}
	return body[i:]
}

func parseDeltas(cmds []string) ([]incremental.Delta, error) {
	ds := make([]incremental.Delta, 0, len(cmds))
	for _, c := range cmds {
		d, err := incremental.ParseDelta(c)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// step is one request of the mix.
type step struct {
	commit bool
	// revert marks the commit that undoes the previous commit, so the
	// committed state is the uploaded configuration again.
	revert bool
	cmd    string
	// state is the committed deltas the request runs against (none,
	// or the one tighten the next revert undoes).
	state []string
}

// mix is the served-whatif request generator, a pure function of the
// configuration and the seed. Requests come in fours: three /whatif
// peeks, then one /apply commit. Commits alternate between a tighten
// and the revert of that tighten, so the committed state is back to
// the uploaded configuration after every second commit and the load is
// the same over any run length. Each tighten doubles one BAG or halves
// one s_max on a uniformly drawn VL, as the serving layer's seeded
// replay script draws them. A committed s_max halving is drawn only
// among VLs whose s_min stays below the halved s_max: halving past
// s_min clamps s_min too, which no delta can revert.
type mix struct {
	rng  *rand.Rand
	cur  *iafdx.Network
	n    int
	undo string
	// committed is the tighten in force, if any.
	committed []string
}

func newMix(base *iafdx.Network, seed int64) *mix {
	return &mix{rng: rand.New(rand.NewSource(seed ^ 0x6d6978)), cur: base.Clone()}
}

func (m *mix) next() step {
	i := m.n
	m.n++
	st := step{state: m.committed}
	if i%4 != 3 {
		st.cmd, _ = drawTighten(m.rng, m.cur, false)
		return st
	}
	st.commit = true
	if m.undo != "" {
		st.cmd, st.revert = m.undo, true
		m.undo, m.committed = "", nil
	} else {
		st.cmd, m.undo = drawTighten(m.rng, m.cur, true)
		m.committed = []string{st.cmd}
	}
	ds, err := parseDeltas([]string{st.cmd})
	if err == nil {
		err = incremental.Apply(m.cur, ds...)
	}
	if err != nil {
		// drawTighten only emits well-formed deltas on existing VLs.
		panic(fmt.Sprintf("perfbench: mix delta %q: %v", st.cmd, err))
	}
	return st
}

// drawTighten draws one tightening delta against the current state
// and the delta that undoes it: BAG doubling or s_max halving, kind
// first, then a VL uniformly among those the kind applies to. With
// revertible set, the undo restores the VL exactly.
func drawTighten(rng *rand.Rand, cur *iafdx.Network, revertible bool) (cmd, undo string) {
	// Each kind applies to most VLs of the industrial configuration, so
	// the loop ends after a draw or two.
	for {
		if rng.Intn(2) == 0 {
			if v := pickVL(rng, cur, func(v *iafdx.VirtualLink) bool { return v.BAGMs*2 <= iafdx.MaxBAGMs }); v != nil {
				return fmt.Sprintf("bag %s %g", v.ID, v.BAGMs*2), fmt.Sprintf("bag %s %g", v.ID, v.BAGMs)
			}
		} else if v := pickVL(rng, cur, func(v *iafdx.VirtualLink) bool {
			return v.SMaxBytes/2 >= iafdx.MinFrameBytes && (!revertible || v.SMinBytes <= v.SMaxBytes/2)
		}); v != nil {
			return fmt.Sprintf("smax %s %d", v.ID, v.SMaxBytes/2), fmt.Sprintf("smax %s %d", v.ID, v.SMaxBytes)
		}
	}
}

func pickVL(rng *rand.Rand, cur *iafdx.Network, ok func(*iafdx.VirtualLink) bool) *iafdx.VirtualLink {
	var cands []*iafdx.VirtualLink
	for _, v := range cur.VLs {
		if ok(v) {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[rng.Intn(len(cands))]
}

// recorded is one served answer kept for the cold re-derivation.
type recorded struct {
	step step
	body []byte
}

// reservoir keeps a uniform seeded sample of the answers offered to it
// (Vitter's algorithm R), so the re-derived answers are a pure
// function of the seed and the number of requests.
type reservoir struct {
	rng   *rand.Rand
	k, n  int
	items []recorded
}

func newReservoir(seed int64, k int) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed ^ 0x5eed)), k: k}
}

func (r *reservoir) offer(x recorded) {
	r.n++
	if len(r.items) < r.k {
		r.items = append(r.items, x)
		return
	}
	if j := r.rng.Intn(r.n); j < r.k {
		r.items[j] = x
	}
}

// replay answers the served requests in process, layer by layer, on
// caches wired the way incremental.NewSession wires them — the calls
// a served round makes, without the HTTP server and the session
// executor — so the traced run can split a request's time by layer.
type replay struct {
	session string
	net     *iafdx.Network
	pg      *iafdx.PortGraph
	ncOpts  netcalc.Options
	trOpts  trajectory.Options
	nc      *netcalc.Cache
	tr      *trajectory.Cache
}

func newReplay(base *iafdx.Network, session string, workers int) (*replay, error) {
	r := &replay{session: session, net: base.Clone(), ncOpts: netcalc.DefaultOptions(), trOpts: trajectory.DefaultOptions()}
	r.ncOpts.Parallel, r.trOpts.Parallel = workers, workers
	r.tr = trajectory.NewCache(r.trOpts)
	r.nc = r.tr.PrefixNCCache()
	pg, err := iafdx.BuildPortGraph(r.net, iafdx.Strict)
	if err != nil {
		return nil, err
	}
	r.pg = pg
	// The upload's base analysis, which fills the caches.
	if _, err := r.analyze(context.Background(), nil, pg); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *replay) analyze(ctx context.Context, tr *tracer, pg *iafdx.PortGraph) (*core.Comparison, error) {
	nc, err := traced(tr, "netcalc", func() (*netcalc.Result, error) {
		return netcalc.AnalyzeWithCacheCtx(ctx, pg, r.ncOpts, r.nc)
	})
	if err != nil {
		return nil, err
	}
	trr, err := traced(tr, "trajectory", func() (*trajectory.Result, error) {
		return trajectory.AnalyzeWithCacheCtx(ctx, pg, r.trOpts, r.tr)
	})
	if err != nil {
		return nil, err
	}
	return traced(tr, "core.combine", func() (*core.Comparison, error) { return core.Combine(pg, nc, trr) })
}

// do answers one request and returns the bytes the server should have
// sent for it.
func (r *replay) do(tr *tracer, st step, seq int) ([]byte, error) {
	next, err := traced(tr, "afdx.clone", func() (*iafdx.Network, error) { return r.net.Clone(), nil })
	if err != nil {
		return nil, err
	}
	if _, err := traced(tr, "incremental.apply", func() (struct{}, error) {
		ds, err := parseDeltas([]string{st.cmd})
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, incremental.Apply(next, ds...)
	}); err != nil {
		return nil, err
	}
	pg, err := traced(tr, "afdx.port_graph", func() (*iafdx.PortGraph, error) {
		return iafdx.BuildPortGraph(next, iafdx.Strict)
	})
	if err != nil {
		return nil, err
	}
	cmp, err := r.analyze(tr.context(), tr, pg)
	if err != nil {
		return nil, err
	}
	out, err := traced(tr, "serve.encode", func() ([]byte, error) {
		return encodeAnswer(serve.AnalysisResponse{
			Session:   r.session,
			Seq:       seq,
			Committed: st.commit,
			Deltas:    []string{st.cmd},
			Analysis:  netcalc.AnalysisWCNC.String(),
			Paths:     pathBounds(cmp),
		})
	})
	if err != nil {
		return nil, err
	}
	if st.commit {
		r.net, r.pg = next, pg
	}
	return out, nil
}

// encodeAnswer encodes an answer the way the serving layer writes it.
func encodeAnswer(resp serve.AnalysisResponse) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
