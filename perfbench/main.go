// Command perfbench is the repository's end-to-end benchmark. It
// times the questions users of the analyser wait for — a cold
// afdx-bounds run on the industrial configuration (WCNC and FIFO NC
// tiers), a served what-if session over loopback HTTP, and a
// conformance campaign over small generated networks — and checks
// every answer it times.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload served-whatif --seed 7 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics; with --trace 1 it carries the
// per-layer split of a separate traced run. The metric names and units
// are declared in BENCHMARK.json at the repository root (metrics.go
// mirrors them; a test keeps the two in step). README.md beside this
// file documents the workloads and the metric-to-layer map.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	// workers is the engine worker count of every analysis the
	// benchmark drives (the served daemon's default, all CPUs).
	workers int
}

// sample is one timed operation.
type sample struct {
	kind opKind
	// ms is the latency the user waits for (the HTTP round trip for
	// the served workload).
	ms float64
	// cpuMs is the CPU time the process spent in the same interval.
	cpuMs float64
	// tracedMs is the duration of the part the traced run splits into
	// spans: the whole op, except on served-whatif, where it is the
	// in-process replay of the request.
	tracedMs float64
	// wireMs is the HTTP round trip minus the in-process replay of the
	// same request (served-whatif traced runs only).
	wireMs float64
	// responseBytes is the size of the served answer.
	responseBytes int
}

type opKind int

const (
	kindOp opKind = iota
	kindPeek
	kindCommit
)

// instance is one set-up workload: its inputs, and for served-whatif
// the live server, ready to run operations.
type instance interface {
	// op runs operation i and checks its output; a wrong output is an
	// error. With tr non-nil the calls into each layer are recorded as
	// spans and the engines count into tr's registry.
	op(i int, tr *tracer) (sample, error)
	// finish runs the checks that sit outside the timed loop and
	// returns the correctness report (digest, tightness summary).
	finish() ([]string, error)
	// layers maps the traced run's spans and counters onto the
	// per-layer metric names.
	layers(a *layerAgg, m map[string]float64)
	close()
}

// workload names one benchmark workload and builds its instance.
type workload struct {
	name  string
	setup func(cfg config) (instance, error)
}

var workloads = []workload{
	{"cold-industrial", func(cfg config) (instance, error) { return newCold(cfg, false) }},
	{"cold-fifo", func(cfg config) (instance, error) { return newCold(cfg, true) }},
	{"served-whatif", func(cfg config) (instance, error) { return newServed(cfg) }},
	{"conformance", func(cfg config) (instance, error) { return newConformance(cfg) }},
}

const (
	// setupRounds is how often the untraced run sets up; setup_s is
	// the median.
	setupRounds = 7
	// warmupOps run untimed after setup so lazy initialisation and the
	// first-use cost of the caches stay out of the latency figures.
	warmupOps = 2
	// maxFailures stops a run early once this many operations failed.
	maxFailures = 10
	// minCoverage is the share of the traced op time the spans must
	// cover on the cold workloads.
	minCoverage = 0.95
)

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 25, "length of the measured loop, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := fs.String("root", ".", "root of the checkout (recorded with the git revision)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		root:     *root,
		workers:  runtime.GOMAXPROCS(0),
	}
	env, err := json.Marshal(environment(cfg))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "env %s\n", env)

	var res *result
	var lines []string
	if cfg.trace {
		res, lines, err = measureTraced(*w, cfg)
	} else {
		res, lines, err = measure(*w, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// measure is the untraced run: set up setupRounds times, warm up, run
// the closed loop for cfg.seconds, check the outputs, and report the
// end-to-end metrics.
//
// The gated times are CPU times of the process, not wall times. On a
// shared virtual machine the wall time of the same operation follows
// the host: with the engines on every vCPU, a run during which the
// hypervisor gave 25% of the CPU to other guests read twice the wall
// time of a quiet one, while the CPU time a thread is charged leaves
// that stolen time out. The wall-clock percentiles are printed beside
// them (README.md).
func measure(w workload, cfg config) (*result, []string, error) {
	var inst instance
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		sw := startWatch()
		in, err := w.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		_, cpu := sw.elapsed()
		setups = append(setups, cpu/1e3)
		inst = in
	}
	defer inst.close()
	if err := warmUp(inst); err != nil {
		return nil, nil, err
	}

	runtime.GC()
	allocB0, _ := heapAllocs()
	// CPU milliseconds per op, all ops and by kind; wall milliseconds
	// for the report.
	var byKind [3][]float64
	var all, wall []float64
	lp := newLoop(cfg)
	for i := warmupOps; lp.more(); i++ {
		// Outside the timed op, so no op pays for garbage an earlier
		// one left.
		runtime.GC()
		s, err := inst.op(i, nil)
		if lp.record(err) {
			continue
		}
		all = append(all, s.cpuMs)
		byKind[s.kind] = append(byKind[s.kind], s.cpuMs)
		wall = append(wall, s.ms)
	}
	allocB1, _ := heapAllocs()

	lines, checkErr := inst.finish()
	// Two collections: the first moves sync.Pool contents to the
	// victim cache, the second frees them, so only what the workload
	// retains stays live.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)

	if len(all) == 0 {
		return nil, nil, fmt.Errorf("%s: no operation succeeded: %v", w.name, lp.firstErr)
	}
	peeks, commits := byKind[kindPeek], byKind[kindCommit]
	if len(peeks) == 0 && len(commits) == 0 {
		// Workloads whose ops neither peek nor commit mirror their op
		// figures into the peek/commit metrics (README.md).
		peeks, commits = all, all
	}
	m := map[string]float64{
		"setup_s":           median(setups),
		"op_cpu_ms_p50":     percentile(all, 50),
		"op_cpu_ms_p90":     percentile(all, 90),
		"ops_per_cpu_s":     1e3 * float64(len(all)) / sum(all),
		"peek_cpu_ms_p50":   percentile(peeks, 50),
		"peek_cpu_ms_p90":   percentile(peeks, 90),
		"commit_cpu_ms_p50": percentile(commits, 50),
		"commit_cpu_ms_p90": percentile(commits, 90),
		"alloc_MB_per_op":   float64(allocB1-allocB0) / 1e6 / float64(len(all)),
		"heap_live_MB":      float64(ms.HeapAlloc) / 1e6,
	}
	lines = append(lines,
		fmt.Sprintf("samples ops=%d peeks=%d commits=%d above_p90=%d failed_frac=%g setup_cpu_s=%v",
			len(all), len(byKind[kindPeek]), len(byKind[kindCommit]), aboveP90(len(all)),
			float64(lp.failed)/float64(lp.attempted), setups),
		fmt.Sprintf("wall op_ms_p50=%.3f op_ms_p90=%.3f ops_per_s=%.4f (not gated: follows the host's load)",
			percentile(wall, 50), percentile(wall, 90), 1e3*float64(len(wall))/sum(wall)))
	res, checks, err := lp.result(checkErr, m, endToEnd, false)
	return res, append(lines, checks...), err
}

// measureTraced is the traced run. Operations alternate between traced
// and untraced, so both see the same caches and machine state; the
// untraced half gives the tracing-overhead baseline.
func measureTraced(w workload, cfg config) (*result, []string, error) {
	inst, err := w.setup(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer inst.close()
	if err := warmUp(inst); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	agg := &layerAgg{}
	var tracedMs, plainMs, wireMs, respKB, coverage []float64
	lp := newLoop(cfg)
	for i := warmupOps; lp.more(); i++ {
		var t *tracer
		if i%2 == 0 {
			t = tr
			t.reset()
		}
		runtime.GC()
		s, err := inst.op(i, t)
		if lp.record(err) {
			continue
		}
		if s.responseBytes > 0 {
			respKB = append(respKB, float64(s.responseBytes)/1e3)
		}
		if t == nil {
			plainMs = append(plainMs, s.tracedMs)
			if s.wireMs != 0 {
				wireMs = append(wireMs, s.wireMs)
			}
			continue
		}
		tracedMs = append(tracedMs, s.tracedMs)
		op := t.summarize()
		coverage = append(coverage, op.coveredMs/s.tracedMs)
		agg.add(op)
	}
	lines, checkErr := inst.finish()
	if len(tracedMs) == 0 || len(plainMs) == 0 {
		return nil, nil, fmt.Errorf("%s: too few operations succeeded: %v", w.name, lp.firstErr)
	}
	m := map[string]float64{
		"trace.op_ms_p50":          percentile(tracedMs, 50),
		"trace.untraced_op_ms_p50": percentile(plainMs, 50),
		"trace.span_coverage":      median(coverage),
	}
	m["trace.overhead_frac"] = m["trace.op_ms_p50"]/m["trace.untraced_op_ms_p50"] - 1
	if len(wireMs) > 0 {
		m["serve.wire_ms"] = median(wireMs)
		m["serve.response_KB"] = median(respKB)
	}
	inst.layers(agg, m)
	if strings.HasPrefix(w.name, "cold-") && m["trace.span_coverage"] < minCoverage && checkErr == nil {
		checkErr = fmt.Errorf("span self times cover %.3f of the traced op time, want >= %.2f", m["trace.span_coverage"], minCoverage)
	}
	lines = append(lines, fmt.Sprintf("samples traced=%d untraced=%d", len(tracedMs), len(plainMs)))
	res, checks, err := lp.result(checkErr, m, perLayer, true)
	return res, append(lines, checks...), err
}

// warmUp runs the untimed warm-up operations; any failure aborts.
func warmUp(inst instance) error {
	for i := 0; i < warmupOps; i++ {
		if _, err := inst.op(i, nil); err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// loop is the closed-loop bookkeeping shared by both runs: one client,
// the next operation issued when the previous one completed.
type loop struct {
	deadline          time.Time
	attempted, failed int
	firstErr          error
}

func newLoop(cfg config) *loop {
	return &loop{deadline: time.Now().Add(time.Duration(cfg.seconds) * time.Second)}
}

func (l *loop) more() bool { return l.failed < maxFailures && time.Now().Before(l.deadline) }

// record counts one attempt and reports whether it failed.
func (l *loop) record(err error) bool {
	l.attempted++
	if err == nil {
		return false
	}
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
	return true
}

// result assembles the printed result from the measured values. Every
// end-to-end metric must have been measured; a per-layer metric whose
// layer does not run on this workload reads 0. The returned lines
// report the checks.
func (l *loop) result(checkErr error, m map[string]float64, defs []metricDef, layered bool) (*result, []string, error) {
	res := &result{Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && !layered {
			return nil, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s has no value (%v); run longer", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		delete(m, d.name)
	}
	for n := range m {
		return nil, nil, fmt.Errorf("metric %s is not declared", n)
	}
	var lines []string
	if l.firstErr != nil {
		lines = append(lines, fmt.Sprintf("check FAILED: %d of %d operations failed; first: %v", l.failed, l.attempted, l.firstErr))
	}
	if checkErr != nil {
		lines = append(lines, "check FAILED: "+checkErr.Error())
	}
	res.Correct = l.failed == 0 && checkErr == nil
	if res.Correct {
		lines = append(lines, "check ok")
	}
	return res, lines, nil
}

// runEnv is the run environment printed with every result.
type runEnv struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Seconds       int    `json:"seconds"`
	Trace         bool   `json:"trace"`
	CPU           string `json:"cpu"`
	NProc         int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	EngineWorkers int    `json:"engine_workers"`
	GoVersion     string `json:"go_version"`
	GitRev        string `json:"git_rev"`
	Loop          string `json:"loop"`
	Transport     string `json:"transport,omitempty"`
}

func environment(cfg config) runEnv {
	e := runEnv{
		Workload:      cfg.workload,
		Seed:          cfg.seed,
		Seconds:       cfg.seconds,
		Trace:         cfg.trace,
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		EngineWorkers: cfg.workers,
		GoVersion:     runtime.Version(),
		GitRev:        gitRev(cfg.root),
		Loop:          "closed, 1 client, 1 process",
	}
	if cfg.workload == "served-whatif" {
		e.Transport = "HTTP/1.1 keep-alive over the loopback interface (127.0.0.1)"
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev is the checkout's revision, or "unknown" outside a git work
// tree (the exported source trees benchmarks often run in).
func gitRev(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	if _, err := os.Stat(filepath.Join(abs, ".git")); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", abs, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
