package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"afdx"
)

// tracer records the spans of one traced operation. The benchmark
// opens a span around each call into a layer's public functions, from
// its own files; the tracer is never put on the context handed to the
// engines. That context carries only the program's own metric
// registry, attached through afdx.WithObservation, so the engines'
// counters land in it. All methods accept a nil receiver, which is the
// untraced path: no spans, a plain background context.
type tracer struct {
	ctx   context.Context
	reg   *afdx.ObsRegistry
	spans []spanRec
	open  []int
	// before is the registry's counter state when the op started.
	before map[string]int64
}

type spanRec struct {
	name   string
	parent int
	start  time.Time
	dur    time.Duration
	// allocB/allocN are the heap bytes and objects allocated while the
	// span was open (start values until it closes).
	allocB, allocN uint64
}

func newTracer() *tracer {
	reg := afdx.NewObsRegistry()
	return &tracer{reg: reg, ctx: afdx.WithObservation(context.Background(), reg, nil)}
}

// context is the context engine calls run under.
func (t *tracer) context() context.Context {
	if t == nil {
		return context.Background()
	}
	return t.ctx
}

// reset starts a new traced operation.
func (t *tracer) reset() {
	t.spans, t.open = t.spans[:0], t.open[:0]
	t.before = counters(t.reg)
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	b, n := heapAllocs()
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: time.Now(), allocB: b, allocN: n})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.dur = time.Since(s.start)
	b, n := heapAllocs()
	s.allocB, s.allocN = b-s.allocB, n-s.allocN
}

// traced runs fn inside a span named after the layer it calls.
func traced[T any](t *tracer, name string, fn func() (T, error)) (T, error) {
	t.begin(name)
	defer t.end()
	return fn()
}

// opLayers is one traced operation's split: per span name, the self
// time (duration minus the time its child spans cover), the total
// time, the self allocations, and the registry counters' increments.
type opLayers struct {
	selfMs, totalMs, allocMB, allocs map[string]float64
	counters                         map[string]int64
	// coveredMs is the time the top-level spans cover.
	coveredMs float64
}

func (t *tracer) summarize() opLayers {
	op := opLayers{
		selfMs:  map[string]float64{},
		totalMs: map[string]float64{},
		allocMB: map[string]float64{},
		allocs:  map[string]float64{},
	}
	childMs := make([]float64, len(t.spans))
	childB := make([]float64, len(t.spans))
	childN := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childMs[s.parent] += ms(s.dur)
			childB[s.parent] += float64(s.allocB)
			childN[s.parent] += float64(s.allocN)
		} else {
			op.coveredMs += ms(s.dur)
		}
	}
	for i, s := range t.spans {
		op.selfMs[s.name] += ms(s.dur) - childMs[i]
		op.totalMs[s.name] += ms(s.dur)
		op.allocMB[s.name] += (float64(s.allocB) - childB[i]) / 1e6
		op.allocs[s.name] += float64(s.allocN) - childN[i]
	}
	after := counters(t.reg)
	op.counters = map[string]int64{}
	for name, v := range after {
		op.counters[name] = v - t.before[name]
	}
	return op
}

// counters reads every counter of a registry.
func counters(reg *afdx.ObsRegistry) map[string]int64 {
	out := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] = c.Value
	}
	return out
}

// layerAgg collects the traced operations of a run. Per-layer values
// are means per traced operation, so the layers of an op add up to the
// op's mean time and a layer that runs on some ops only (the exact
// search on every fourth conformance configuration) still shows.
type layerAgg struct {
	ops []opLayers
}

func (a *layerAgg) add(op opLayers) { a.ops = append(a.ops, op) }

func (a *layerAgg) mean(pick func(opLayers) float64) float64 {
	if len(a.ops) == 0 {
		return 0
	}
	sum := 0.0
	for _, op := range a.ops {
		sum += pick(op)
	}
	return sum / float64(len(a.ops))
}

// selfMs is a span's mean self time per op.
func (a *layerAgg) selfMs(name string) float64 {
	return a.mean(func(op opLayers) float64 { return op.selfMs[name] })
}

// totalMs is a span's mean total time per op (children included).
func (a *layerAgg) totalMs(name string) float64 {
	return a.mean(func(op opLayers) float64 { return op.totalMs[name] })
}

func (a *layerAgg) allocMB(name string) float64 {
	return a.mean(func(op opLayers) float64 { return op.allocMB[name] })
}

func (a *layerAgg) allocs(name string) float64 {
	return a.mean(func(op opLayers) float64 { return op.allocs[name] })
}

// counter is a registry counter's mean increment per op.
func (a *layerAgg) counter(name string) float64 {
	return a.mean(func(op opLayers) float64 { return float64(op.counters[name]) })
}

// ratio is sum(num) / (sum(num) + sum(other)) over the run's counters.
func (a *layerAgg) ratio(num, other string) float64 {
	n, o := a.counter(num), a.counter(other)
	if n+o == 0 {
		return 0
	}
	return n / (n + o)
}

// engineLayers fills the metrics of the engine calls every workload
// makes: time, allocations and the engines' own counters.
func engineLayers(a *layerAgg, m map[string]float64, ncMs, trMs string) {
	m[ncMs] = a.selfMs("netcalc")
	m[trMs] = a.selfMs("trajectory")
	m["netcalc.alloc_MB"] = a.allocMB("netcalc")
	m["netcalc.allocs"] = a.allocs("netcalc")
	m["netcalc.ports_analyzed"] = a.counter("netcalc.ports_analyzed")
	m["trajectory.alloc_MB"] = a.allocMB("trajectory")
	m["trajectory.allocs"] = a.allocs("trajectory")
	m["trajectory.candidate_offsets"] = a.counter("trajectory.candidate_offsets")
	m["trajectory.busy_period_iterations"] = a.counter("trajectory.busy_period_iterations")
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// heapAllocs returns the process's cumulative heap allocation, in
// bytes and objects, without stopping the world.
func heapAllocs() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// since is the time elapsed from t0, in milliseconds.
func since(t0 time.Time) float64 { return ms(time.Since(t0)) }

// stopwatch times an interval twice: in wall time, and in the CPU time
// the whole process spent in it (every thread, user and system).
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: processCPU()} }

// elapsed is the wall and CPU time since the start, in milliseconds.
func (s stopwatch) elapsed() (wallMs, cpuMs float64) {
	return since(s.wall), ms(processCPU() - s.cpu)
}

// processCPU is the CPU time the process has used so far. Linux charges
// a thread only for the time it ran, so time the hypervisor gave to
// other guests (steal) is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank percentile: the smallest sample with
// at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// aboveP90 is how many of n samples lie above the nearest-rank p90.
func aboveP90(n int) int { return n - int(math.Ceil(0.9*float64(n))) }
