package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	iafdx "afdx/internal/afdx"
	"afdx/internal/incremental"
)

func TestMixIsPureFunctionOfSeed(t *testing.T) {
	base, err := industrial(1)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) []step {
		m := newMix(base, seed)
		out := make([]step, 200)
		for i := range out {
			out[i] = m.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := func(x, y []step) bool {
		for i := range x {
			if x[i].commit != y[i].commit || x[i].revert != y[i].revert || x[i].cmd != y[i].cmd ||
				strings.Join(x[i].state, ";") != strings.Join(y[i].state, ";") {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("two mixes drawn from the same seed differ")
	}
	if same(a, c) {
		t.Fatal("mixes drawn from seeds 7 and 8 are identical")
	}
	for i, st := range a {
		if st.commit != (i%4 == 3) {
			t.Fatalf("request %d: commit=%v, want three peeks then one commit", i, st.commit)
		}
		if st.revert != (i%8 == 7) {
			t.Fatalf("request %d: revert=%v, want every second commit to revert", i, st.revert)
		}
	}
	// The mix reads the configuration it was given but never changes it.
	fresh, err := industrial(1)
	if err != nil {
		t.Fatal(err)
	}
	if configDigest(t, base) != configDigest(t, fresh) {
		t.Fatal("drawing the mix mutated the uploaded configuration")
	}
}

func TestCommitPairsReturnToUpload(t *testing.T) {
	base, err := industrial(1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		commitPairs(t, base, seed)
	}
}

func commitPairs(t *testing.T, base *iafdx.Network, seed int64) {
	want := configDigest(t, base)
	committed := base.Clone()
	m := newMix(base, seed)
	commits := 0
	for i := 0; i < 400; i++ {
		st := m.next()
		ds, err := parseDeltas([]string{st.cmd})
		if err != nil {
			t.Fatal(err)
		}
		target := committed
		if !st.commit {
			target = committed.Clone()
		}
		if err := incremental.Apply(target, ds...); err != nil {
			t.Fatalf("seed %d: request %d %q: %v", seed, i, st.cmd, err)
		}
		if !st.commit {
			continue
		}
		commits++
		got := configDigest(t, committed)
		if commits%2 == 0 && got != want {
			t.Fatalf("seed %d: after commit pair %d (%q) the committed state differs from the upload", seed, commits/2, st.cmd)
		}
		if commits%2 == 1 && got == want {
			t.Fatalf("seed %d: tighten commit %q left the configuration unchanged", seed, st.cmd)
		}
	}
	if commits != 100 {
		t.Fatalf("seed %d: %d commits in 400 requests, want 100", seed, commits)
	}
}

func configDigest(t *testing.T, n *iafdx.Network) uint64 {
	t.Helper()
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return digest(data)
}

func TestPercentileNearestRank(t *testing.T) {
	// Reference: the smallest sample v with at least p% of the samples
	// at or below it, found by scanning the sorted samples.
	ref := func(xs []float64, p float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, v := range s {
			n := 0
			for _, x := range s {
				if x <= v {
					n++
				}
			}
			if float64(n)*100 >= p*float64(len(s)) {
				return v
			}
		}
		return s[len(s)-1]
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, 1+rng.Intn(150))
		for i := range xs {
			xs[i] = math.Round(rng.ExpFloat64()*100) / 10 // ties included
		}
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
			if got, want := percentile(xs, p), ref(xs, p); got != want {
				t.Fatalf("n=%d p%g: got %v, want %v", len(xs), p, got, want)
			}
		}
	}
	if got := aboveP90(100); got != 10 {
		t.Fatalf("aboveP90(100) = %d, want 10", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric tables mirror.
type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name string }               `json:"workloads"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(kind string, declared []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark has %d", kind, len(declared), len(defs))
		}
		for i := range declared {
			if i >= len(defs) {
				break
			}
			d := declared[i]
			if d.Name != defs[i].name || d.Unit != defs[i].unit || d.Better != defs[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, d, defs[i])
			}
			if !valid.MatchString(d.Name) {
				t.Errorf("%s: metric name %q", kind, d.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloadNames())
	}
}

// TestPrintedMetricsAreDeclared runs the conformance workload (the
// fastest) briefly, untraced and traced, and checks that the result
// line carries exactly the declared metrics.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "conformance", "--seed", "5", "--seconds", "1", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: result %+v\n%s", trace, res, out.String())
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics printed, %d declared", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s printed as %+v (present %v), want unit %s", trace, d.name, m, ok, d.unit)
			}
		}
	}
}
