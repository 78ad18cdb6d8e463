package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/obs"
)

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// shortOptions is a short-scale run: a 2000-node graph, a few epochs, and
// a 200 ms timed phase.
func shortOptions(seed uint64, trace bool) options {
	return options{seed: seed, seconds: 200 * time.Millisecond, trace: trace, scale: scaleFor(2000)}
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runShort runs a workload at short scale and parses its result line.
func runShort(t *testing.T, name string, opt options) resultLine {
	t.Helper()
	r := newResult()
	if err := workloads[name](opt, r); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b, err := r.line(opt.trace)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out resultLine
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("%s: result line %s: %v", name, b, err)
	}
	if !out.Correct || out.Failed != 0 {
		r.report(os.Stderr, opt.trace)
	}
	return out
}

func TestSpecsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, the benchmark has %d workloads", names, len(workloads))
	}
	var want []metricSpec
	for _, m := range f.EndToEnd {
		want = append(want, metricSpec{m.Name, m.Unit, true})
	}
	for _, m := range f.PerLayer {
		want = append(want, metricSpec{m.Name, m.Unit, false})
	}
	if len(want) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(want), len(specs))
	}
	for i := range want {
		if want[i] != specs[i] {
			t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %+v", i, want[i], specs[i])
		}
	}
}

// TestEveryMetricPrintedWithUnit runs every workload untraced and traced
// at short scale: each passes its correctness checks and prints every
// metric BENCHMARK.json names, with its unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	f := readBenchmarkFile(t)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			out := runShort(t, name, shortOptions(7, trace))
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && *got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, *got.Value)
				}
			}
		}
	}
}

// TestChecksFailOnWrongExpectation gives each correctness check a wrong
// expectation and requires the run to fail.
func TestChecksFailOnWrongExpectation(t *testing.T) {
	cases := []struct {
		workload string
		tamper   tamper
	}{
		{"gcn-fullbatch", tamper{fingerprint: true}},
		{"gcn-fullbatch", tamper{testAcc: true}},
		{"sage-sampled", tamper{fingerprint: true}},
		{"sage-sampled", tamper{testAcc: true}},
		{"gcn-2shard", tamper{fingerprint: true}},
		{"serve-zipf-swap", tamper{logit: true}},
		{"gcn-fullbatch", tamper{reconcile: true}},
		{"sage-sampled", tamper{reconcile: true}},
	}
	for _, c := range cases {
		opt := shortOptions(7, c.tamper.reconcile)
		opt.tamper = c.tamper
		out := runShort(t, c.workload, opt)
		if out.Correct || out.Failed == 0 {
			t.Errorf("%s with %+v: correct=%v failed=%d, want a failed run", c.workload, c.tamper, out.Correct, out.Failed)
		}
	}
}

// digest hashes the inputs a workload derives from its seed; the tests use
// it to show the same seed gives the same inputs.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) dataset(ds *dataset.Dataset) {
	d.u64(uint64(ds.G.N))
	for _, v := range ds.G.Offsets {
		d.u64(uint64(v))
	}
	for _, v := range ds.G.Adj {
		d.u64(uint64(v))
	}
	for _, v := range ds.X.Data {
		d.u64(math.Float64bits(v))
	}
	for _, idx := range [][]int{ds.Labels, ds.TrainIdx, ds.ValIdx, ds.TestIdx} {
		d.u64(uint64(len(idx)))
		for _, v := range idx {
			d.u64(uint64(v))
		}
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestSeedDeterminesInputs: the same seed gives identical inputs (dataset
// and request script), a different seed different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	inputs := func(seed uint64) string {
		ds, err := dataset.Generate(datasetConfig(2000, seed))
		if err != nil {
			t.Fatal(err)
		}
		d := newDigest()
		d.dataset(ds)
		for _, u := range buildScript(seed, ds.G.N).urls {
			d.h.Write([]byte(u))
		}
		return d.String()
	}
	a, b, c := inputs(11), inputs(11), inputs(12)
	if a != b {
		t.Errorf("seed 11 gave different inputs: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 11 and 12 gave identical inputs %s", a)
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	ms := time.Millisecond
	spans := indexSpans([]obs.SpanRecord{
		{ID: 1, Name: "layer", Start: 0, Dur: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, Dur: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, Dur: 4 * ms}, // overlaps a by 2 ms
		{ID: 4, Parent: 1, Name: "c", Start: 9 * ms, Dur: 3 * ms}, // runs past the parent
	})
	if got, want := spans.selfTime(spans.spans[0]), 3*ms; got != want {
		t.Errorf("self time %v, want %v", got, want)
	}
}

func TestTailLevelLeavesTenAbove(t *testing.T) {
	for _, n := range []int{11, 20, 36, 108, 1000} {
		lvl := tailLevel(n)
		if above := float64(n) * (1 - lvl); above < 10 {
			t.Errorf("n=%d: p%.0f leaves %.1f samples above, want >= 10", n, lvl*100, above)
		}
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("median of 1,2,3 = %v", got)
	}
}
