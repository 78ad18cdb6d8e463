package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit. endToEnd metrics come
// from untraced runs (--trace 0), the rest from traced runs (--trace 1).
type metricSpec struct {
	name     string
	unit     string
	endToEnd bool
}

// specs is the benchmark's metric table, in print order. BENCHMARK.json
// lists the same names and units; a test keeps the two in step.
var specs = []metricSpec{
	{"setup_s", "s", true},
	{"epoch_s.p50", "s", true},
	{"epoch_s.tail", "s", true},
	{"test_acc", "fraction", true},
	{"peak_heap_mb", "MB", true},
	{"work_rate", "1/s", true},

	{"tensor.matmul_ms_per_epoch", "ms", false},
	{"tensor.matmul_gflops", "GFLOP/s", false},
	{"tensor.pool_hit_ratio", "fraction", false},
	{"graph.spmm_ms_per_epoch", "ms", false},
	{"graph.spmm_gbps", "GB/s", false},
	{"nn.0-dropout.fwd_ms", "ms", false},
	{"nn.0-dropout.bwd_ms", "ms", false},
	{"nn.1-gcnconv.fwd_ms", "ms", false},
	{"nn.1-gcnconv.bwd_ms", "ms", false},
	{"nn.2-relu.fwd_ms", "ms", false},
	{"nn.2-relu.bwd_ms", "ms", false},
	{"nn.3-dropout.fwd_ms", "ms", false},
	{"nn.3-dropout.bwd_ms", "ms", false},
	{"nn.4-gcnconv.fwd_ms", "ms", false},
	{"nn.4-gcnconv.bwd_ms", "ms", false},
	{"nn.loss_ms", "ms", false},
	{"nn.adam_step_ms", "ms", false},
	{"par.ranges_parallel_per_epoch", "count", false},
	{"par.ranges_inline_per_epoch", "count", false},
	{"par.tasks_per_epoch", "count", false},
	{"par.speedup_2w", "ratio", false},
	{"sampling.sample_ms_per_batch", "ms", false},
	{"sampling.aggregate_ms_per_batch", "ms", false},
	{"sampling.unique_srcs_per_batch", "count", false},
	{"train.batch_ms.p50", "ms", false},
	{"train.validate_ms.p50", "ms", false},
	{"train.shuffle_ms", "ms", false},
	{"train.rows_gathered_per_epoch", "count", false},
	{"serve.max_rate_at_slo", "req/s", false},
	{"serve.p50_ms", "ms", false},
	{"serve.p99_ms", "ms", false},
	{"serve.queue_ms.p50", "ms", false},
	{"serve.queue_ms.p99", "ms", false},
	{"serve.forward_ms.p50", "ms", false},
	{"serve.rows_per_forward", "count", false},
	{"serve.cache_hit_ratio", "fraction", false},
	{"serve.swap_ms", "ms", false},
	{"serve.post_swap_p99_ms", "ms", false},
	{"serve.service_ms.p50", "ms", false},
	{"serve.service_ms.p99", "ms", false},
	{"loadgen.late_ms.p50", "ms", false},
	{"loadgen.late_ms.p99", "ms", false},
	{"loadgen.achieved_over_offered", "ratio", false},
	{"distnet.rounds_per_epoch", "count", false},
	{"distnet.exchange_wait_ms_per_epoch", "ms", false},
	{"distnet.local_spmm_ms_per_epoch", "ms", false},
	{"distnet.wait_share", "fraction", false},
	{"distnet.stale_hits", "count", false},
	{"distnet.reconnects", "count", false},
	{"distnet.wire_mb_per_epoch", "MB", false},
	{"partition.edge_cut_frac", "fraction", false},
	{"partition.s", "s", false},
	{"setup.dataset_s", "s", false},
	{"setup.operator_s", "s", false},
	{"setup.fit_s", "s", false},
	{"setup.cluster_open_s", "s", false},
	{"trace.overhead_frac", "fraction", false},
	{"trace.reconcile_err", "fraction", false},
	{"failed_frac", "fraction", false},
}

func specByName(name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

// result accumulates one run's operation counts, correctness failures,
// metric values and notes.
type result struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
	notes     []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

// set records a metric; the name must be in specs.
func (r *result) set(name string, v float64) {
	if _, ok := specByName(name); !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.values[name] = v
}

// ops counts n operations that completed without failing.
func (r *result) ops(n int) { r.attempted += n }

// check counts one correctness check; a false ok is a failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// fail counts n failed operations of one kind.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.attempted += n
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf("%d× ", n)+fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the result line: the end-to-end metrics for an untraced
// run, the per-layer metrics for a traced one. A per-layer metric whose
// layer the workload does not exercise reads 0.
func (r *result) line(trace bool) ([]byte, error) {
	r.values["failed_frac"] = 0
	if r.attempted > 0 {
		r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	metrics := map[string]metricValue{}
	for _, s := range specs {
		if s.endToEnd == trace {
			continue
		}
		v, ok := r.values[s.name]
		if !ok && s.endToEnd {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
}

// report prints the run's notes, failures and metrics for a human reader.
func (r *result) report(w io.Writer, trace bool) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, s := range specs {
		if s.endToEnd == trace {
			continue
		}
		if v, ok := r.values[s.name]; ok {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", s.name, v, s.unit)
		} else {
			fmt.Fprintf(w, "  %-36s %14s %s (layer not exercised)\n", s.name, "0", s.unit)
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLevel is the highest percentile, rounded down to a multiple of 5,
// that leaves at least ten samples above it; 0 when there are too few.
func tailLevel(n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Floor(float64(n-10)/float64(n)*20) / 20
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setEpochMetrics reports the median and tail epoch time of the timed
// epochs and states the tail's percentile and sample count.
func setEpochMetrics(r *result, epochs []time.Duration) {
	xs := seconds(epochs)
	r.set("epoch_s.p50", quantile(xs, 0.5))
	lvl := tailLevel(len(xs))
	if lvl == 0 {
		r.set("epoch_s.tail", quantile(xs, 1))
		r.note("epoch_s.tail is the maximum of only %d timed epochs", len(xs))
		return
	}
	r.set("epoch_s.tail", quantile(xs, lvl))
	r.note("epoch_s.tail is p%.0f of %d timed epochs", lvl*100, len(xs))
}
