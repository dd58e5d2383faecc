package oplog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"afdx/internal/obs"
)

func TestSink(t *testing.T) {
	if w, err := Sink(""); err != nil || w != nil {
		t.Fatalf("Sink(\"\") = %v, %v; want nil, nil", w, err)
	}
	w, err := Sink("stderr")
	if err != nil || w == nil {
		t.Fatalf("Sink(stderr) = %v, %v", w, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("stderr sink Close: %v", err)
	}
	for _, dest := range []string{"stdout", "-"} {
		if _, err := Sink(dest); err == nil {
			t.Fatalf("Sink(%q) accepted; stdout must be refused", dest)
		}
	}
	path := filepath.Join(t.TempDir(), "op.log")
	w, err = Sink(path)
	if err != nil {
		t.Fatalf("Sink(file): %v", err)
	}
	fmt.Fprintln(w, "line")
	if err := w.Close(); err != nil {
		t.Fatalf("file sink Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "line\n" {
		t.Fatalf("file sink content = %q, %v", data, err)
	}
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	log := New(&buf, true)
	log.Info("request", "id", "r1", "status", 200, "dur_us", int64(1234))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"time", "level", "msg", "id", "status", "dur_us"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("log line missing %q: %s", key, buf.String())
		}
	}
	if rec["msg"] != "request" || rec["id"] != "r1" {
		t.Errorf("unexpected record: %v", rec)
	}
}

func TestLoggerNilAndDiscard(t *testing.T) {
	for _, log := range []interface {
		Info(string, ...any)
	}{New(nil, true), Discard()} {
		log.Info("dropped", "k", "v") // must not panic or write anywhere
	}
}

func TestFNV64(t *testing.T) {
	// Reference values of FNV-1a 64-bit.
	if got := FNV64(nil); got != "cbf29ce484222325" {
		t.Errorf("FNV64(nil) = %s", got)
	}
	if got := FNV64([]byte("a")); got != "af63dc4c8601ec8c" {
		t.Errorf("FNV64(a) = %s", got)
	}
	if FNV64([]byte("config-a")) == FNV64([]byte("config-b")) {
		t.Error("distinct inputs collided")
	}
}

func TestRingEvictionOrder(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(RequestTrace{ID: fmt.Sprintf("r%d", i), Status: 200, DurUs: int64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for _, id := range []string{"r1", "r2"} {
		if _, ok := r.Get(id); ok {
			t.Errorf("%s still retained after eviction", id)
		}
	}
	for _, id := range []string{"r3", "r4", "r5"} {
		if tr, ok := r.Get(id); !ok || tr.ID != id {
			t.Errorf("Get(%s) = %v, %v", id, tr, ok)
		}
	}
	list := r.List()
	if len(list) != 3 || list[0].ID != "r5" || list[1].ID != "r4" || list[2].ID != "r3" {
		t.Errorf("List order = %v, want newest first r5,r4,r3", list)
	}
}

// TestRingEventBudget pins the retention unit: traces cost
// max(1, len(Events)) events against the budget, the budget is never
// exceeded by more than the newest trace alone, the newest trace is
// always retained, and evicted ids miss on Get.
func TestRingEventBudget(t *testing.T) {
	const budget = 50
	r := NewRing(budget)
	mk := func(i, n int) RequestTrace {
		return RequestTrace{ID: fmt.Sprintf("r%d", i), Events: make([]obs.TraceEvent, n)}
	}
	sizes := []int{0, 7, 20, 1, 13, 49, 50, 3, 80, 2, 0, 30, 19, 5}
	for i, n := range sizes {
		r.Add(mk(i, n))
		list := r.List()
		if list[0].ID != fmt.Sprintf("r%d", i) {
			t.Fatalf("after r%d (%d events): newest retained is %s", i, n, list[0].ID)
		}
		used := 0
		for _, s := range list {
			used += max(1, s.Events)
		}
		if used > budget && len(list) > 1 {
			t.Fatalf("after r%d: %d traces hold %d events, budget %d", i, len(list), used, budget)
		}
		// Retained traces are exactly the newest suffix; everything
		// older misses.
		for j := 0; j <= i; j++ {
			_, ok := r.Get(fmt.Sprintf("r%d", j))
			if want := j > i-len(list); ok != want {
				t.Fatalf("after r%d: Get(r%d) = %v, want %v", i, j, ok, want)
			}
		}
	}
	// An oversized newcomer evicts everything older and stays alone.
	r2 := NewRing(budget)
	r2.Add(mk(1, 10))
	r2.Add(mk(2, 80))
	if r2.Len() != 1 {
		t.Fatalf("oversized newest trace: Len = %d, want 1", r2.Len())
	}
	if tr, ok := r2.Get("r2"); !ok || len(tr.Events) != 80 {
		t.Fatalf("oversized newest trace not retained: %v", ok)
	}
	if _, ok := r2.Get("r1"); ok {
		t.Fatal("trace evicted for an oversized newcomer still resolves")
	}
	// Exactly filling the budget evicts nothing.
	r3 := NewRing(budget)
	r3.Add(mk(1, 20))
	r3.Add(mk(2, 30))
	if r3.Len() != 2 {
		t.Fatalf("exact fill: Len = %d, want 2", r3.Len())
	}
}

func TestRingNilAndZero(t *testing.T) {
	var r *Ring
	r.Add(RequestTrace{ID: "x"})
	if _, ok := r.Get("x"); ok {
		t.Error("nil ring retained a trace")
	}
	if r.List() != nil || r.Len() != 0 {
		t.Error("nil ring not empty")
	}
	if NewRing(0) != nil || NewRing(-1) != nil {
		t.Error("NewRing with capacity <= 0 should be nil")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("g%d-%d", g, i)
				r.Add(RequestTrace{ID: id, Events: []obs.TraceEvent{{Name: id, Ph: "X"}}})
				r.Get(id)
				r.List()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want capacity 8", r.Len())
	}
	for _, s := range r.List() {
		if tr, ok := r.Get(s.ID); !ok || tr.ID != s.ID {
			t.Errorf("listed trace %s not retrievable", s.ID)
		}
	}
}

var promSeries = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+)$`)

// TestWritePrometheus builds a mixed registry and validates the
// exposition against the text-format grammar: TYPE headers, legal
// series names, cumulative monotone buckets ending at le="+Inf" ==
// _count.
func TestWritePrometheus(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("netcalc.port_visits", obs.Deterministic, "ports visited").Add(7)
	reg.Gauge("runtime.goroutines", obs.BestEffort, "live goroutines").Set(12)
	h := reg.Histogram("serve.request_duration_us", obs.BestEffort, "request latency")
	for _, v := range []int64{0, 1, 3, 9, 1000, 1 << 40} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	types := map[string]string{}
	cum := map[string]int64{} // metric → last cumulative bucket value
	inf := map[string]int64{}
	count := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		m := promSeries.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed series line: %q", line)
		}
		name, labels := m[1], m[2]
		v, _ := strconv.ParseInt(m[3], 10, 64)
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			if strings.Contains(labels, `le="+Inf"`) {
				inf[base] = v
			} else if v < cum[base] {
				t.Errorf("bucket series for %s not monotone: %q", base, line)
			} else {
				cum[base] = v
			}
		case strings.HasSuffix(name, "_count"):
			count[strings.TrimSuffix(name, "_count")] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"netcalc_port_visits":       "counter",
		"runtime_goroutines":        "gauge",
		"serve_request_duration_us": "histogram",
	}
	for name, typ := range want {
		if types[name] != typ {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], typ)
		}
	}
	if !strings.Contains(text, `netcalc_port_visits{class="deterministic"} 7`) {
		t.Errorf("counter series missing:\n%s", text)
	}
	if !strings.Contains(text, `runtime_goroutines{class="best-effort"} 12`) {
		t.Errorf("gauge series missing:\n%s", text)
	}
	base := "serve_request_duration_us"
	if inf[base] != 6 || count[base] != 6 {
		t.Errorf("le=+Inf = %d, _count = %d, want 6 observations", inf[base], count[base])
	}
	if cum[base] > inf[base] {
		t.Errorf("finite buckets (%d) exceed +Inf (%d)", cum[base], inf[base])
	}
}

func TestWritePrometheusNil(t *testing.T) {
	if err := WritePrometheus(&bytes.Buffer{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"netcalc.port_visits": "netcalc_port_visits",
		"serve.http/requests": "serve_http_requests",
		"9lives":              "_lives",
		"a9":                  "a9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewRuntimeSampler(reg)
	var occupancy int64 = 3
	s.AddGauge("serve.sessions_live", "sessions held by the pool", func() int64 { return occupancy })
	s.Sample()
	snap := reg.Snapshot()
	if g := snap.Gauge("runtime.goroutines"); g < 1 {
		t.Errorf("runtime.goroutines = %d, want >= 1", g)
	}
	if g := snap.Gauge("runtime.heap_alloc_bytes"); g <= 0 {
		t.Errorf("runtime.heap_alloc_bytes = %d, want > 0", g)
	}
	if g := snap.Gauge("serve.sessions_live"); g != 3 {
		t.Errorf("serve.sessions_live = %d, want 3", g)
	}
	// Every gauge the sampler registers must be BestEffort: the
	// Deterministic snapshot is identical with and without sampling.
	for _, g := range snap.Gauges {
		if g.Class != obs.BestEffort.String() {
			t.Errorf("sampler gauge %s has class %s", g.Name, g.Class)
		}
	}
	if det := snap.Deterministic(); len(det.Gauges) != 0 {
		t.Errorf("sampler leaked into Deterministic snapshot: %v", det.Gauges)
	}
}

func TestRuntimeSamplerStartStop(t *testing.T) {
	s := NewRuntimeSampler(obs.NewRegistry())
	stop := s.Start(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
	var nilS *RuntimeSampler
	nilS.Sample()
	nilS.AddGauge("x", "", func() int64 { return 0 })
	nilS.Start(time.Millisecond)()
}
