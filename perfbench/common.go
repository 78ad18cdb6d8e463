package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/distnet"
	"scalegnn/internal/models"
	"scalegnn/internal/obs"
	"scalegnn/internal/par"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// fullNodes is the graph size of every workload: gnntrain's defaults at
// n=20000.
const fullNodes = 20000

// options is one benchmark invocation.
type options struct {
	seed    uint64
	seconds time.Duration // length of the timed phase
	trace   bool
	scale   scale
	tamper  tamper
}

// tamper makes a correctness check compare against a deliberately wrong
// expectation. The benchmark's tests use it to show each check can fail.
type tamper struct {
	fingerprint bool // flip one bit of the expected prediction fingerprint
	testAcc     bool // perturb the expected test accuracy
	logit       bool // perturb one expected logit of every sampled response
	reconcile   bool // double the train.batch time the replay must reconcile with
}

// scale sizes a run. The command always runs at full scale; the
// benchmark's tests shrink it.
type scale struct {
	nodes       int
	setups      int // set-up repetitions; setup_s is their median
	minFits     int // fits per timed phase, at least (SGC refits on serve)
	warm        int // leading epochs of each fit left out of epoch timing
	gcnEpochs   int // epochs per fit, gcn-fullbatch
	sageEpochs  int // epochs per fit, sage-sampled
	shardEpochs int // epochs per fit, gcn-2shard
	sgcEpochs   int // epochs per SGC fit, serve-zipf-swap
	replaySteps int // replayed training steps in a traced run, at least
	speedEpochs int // epochs per fit when measuring par.speedup_2w

	rungDur    time.Duration // length of one offered-rate rung
	stairBlock int           // staircase rungs between two SGC refits
	fixedDur   time.Duration // length of the fixed-rate phase
}

func scaleFor(nodes int) scale {
	if nodes >= fullNodes {
		return scale{
			nodes: nodes, setups: 5, minFits: 2, warm: 1,
			gcnEpochs: 20, sageEpochs: 10, shardEpochs: 10, sgcEpochs: 20,
			replaySteps: 12, speedEpochs: 5,
			rungDur: 400 * time.Millisecond, stairBlock: 4,
			fixedDur: 1500 * time.Millisecond,
		}
	}
	return scale{
		nodes: nodes, setups: 2, minFits: 2, warm: 1,
		gcnEpochs: 13, sageEpochs: 7, shardEpochs: 4, sgcEpochs: 4,
		replaySteps: 12, speedEpochs: 3,
		rungDur: 100 * time.Millisecond, stairBlock: 2,
		fixedDur: 200 * time.Millisecond,
	}
}

// workloads maps each BENCHMARK.json workload to its run; README.md says
// why each exists.
var workloads = map[string]func(options, *result) error{
	"gcn-fullbatch":   runGCNFullBatch,
	"sage-sampled":    runSAGESampled,
	"gcn-2shard":      runGCN2Shard,
	"serve-zipf-swap": runServeZipfSwap,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " | ")
}

// datasetConfig is gnntrain's default synthetic task at the run's scale.
func datasetConfig(nodes int, seed uint64) dataset.Config {
	return dataset.Config{
		Nodes: nodes, Classes: 5, AvgDegree: 10, Homophily: 0.8,
		FeatureDim: 32, NoiseStd: 1.2, TrainFrac: 0.5, ValFrac: 0.2, Seed: seed,
	}
}

// trainConfig is gnntrain's default training config with a fixed epoch
// count and no early stop.
func trainConfig(seed uint64, epochs int) models.TrainConfig {
	cfg := models.DefaultTrainConfig()
	cfg.Seed = seed
	cfg.Epochs = epochs
	cfg.Patience = 0
	return cfg
}

// timeSetup runs setup opt.scale.setups times, keeps the last result and
// records the median duration as setup_s. Every earlier result is released
// with drop before the next repetition.
func timeSetup[S any](opt options, r *result, setup func() (S, error), drop func(S)) (S, error) {
	var (
		last S
		durs []time.Duration
	)
	for i := 0; i < opt.scale.setups; i++ {
		if i > 0 {
			drop(last)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return last, err
		}
		durs = append(durs, time.Since(start))
		last = s
	}
	r.set("setup_s", quantile(seconds(durs), 0.5))
	return last, nil
}

// epochClock is a train.Hook recording each epoch's wall time. Given a heap
// probe it samples the live heap when the fit's last epoch ends, while the
// model's activations and gradients are still held.
type epochClock struct {
	prev   time.Duration
	epoch  []time.Duration
	heap   *heapProbe
	epochs int
}

func (c *epochClock) OnBatch(train.BatchEnd) {}

func (c *epochClock) OnEpoch(e train.EpochEnd) {
	c.epoch = append(c.epoch, e.Elapsed-c.prev)
	c.prev = e.Elapsed
	if c.heap != nil && e.Epoch == c.epochs-1 {
		c.heap.sample()
	}
}

// timed returns the epochs of each fit after its warm-up epochs.
func timed(fits [][]time.Duration, warm int) []time.Duration {
	var out []time.Duration
	for _, f := range fits {
		if len(f) > warm {
			out = append(out, f[warm:]...)
		}
	}
	return out
}

// heapProbe records the largest live heap of a timed phase, read after a
// forced GC at the end of each fit's last epoch (on serve-zipf-swap, of
// each SGC refit made while the engine holds both served models). The
// figure is the memory the program holds there (datasets, models,
// activations, caches; free pooled buffers excluded), not the GC's timing.
// The forced GCs are the benchmark's own work, so the probe keeps their
// time and a timed phase leaves it out.
type heapProbe struct {
	peak  uint64
	spent time.Duration // total time inside sample
}

func (h *heapProbe) sample() {
	start := time.Now()
	defer func() { h.spent += time.Since(start) }()
	// Two cycles: sync.Pool keeps the previous cycle's free buffers in a
	// victim cache, which the second cycle drops.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
}

// probeTime is the time a possibly nil probe has spent sampling.
func (h *heapProbe) probeTime() time.Duration {
	if h == nil {
		return 0
	}
	return h.spent
}

// mb is the peak in MB.
func (h *heapProbe) mb() float64 { return float64(h.peak) / (1 << 20) }

// tracing is a traced run's obs state: the span tracer plus a registry
// bound to the counters of every layer that has them.
type tracing struct {
	tr  *obs.Tracer
	reg *obs.Registry
}

func startTracing() *tracing {
	t := &tracing{tr: obs.NewTracer(), reg: obs.NewRegistry()}
	obs.SetTracer(t.tr)
	tensor.EnablePoolMetrics(t.reg)
	par.EnableMetrics(t.reg)
	train.EnableMetrics(t.reg)
	distnet.EnableMetrics(t.reg)
	return t
}

// stop uninstalls the tracer and unbinds the counters, returning the spans.
func (t *tracing) stop() []obs.SpanRecord {
	obs.SetTracer(nil)
	tensor.EnablePoolMetrics(nil)
	par.EnableMetrics(nil)
	train.EnableMetrics(nil)
	distnet.EnableMetrics(nil)
	return t.tr.Snapshot()
}

func (t *tracing) counter(name string) float64 { return t.reg.Snapshot()[name] }

// setCounterMetrics reports the registry counters of a traced training
// phase per epoch.
func setCounterMetrics(r *result, t *tracing, epochs int) {
	e := float64(epochs)
	r.set("par.ranges_parallel_per_epoch", t.counter("par.ranges_parallel")/e)
	r.set("par.ranges_inline_per_epoch", t.counter("par.ranges_inline")/e)
	r.set("par.tasks_per_epoch", t.counter("par.tasks")/e)
	hits, misses := t.counter("tensor.pool_hits"), t.counter("tensor.pool_misses")
	r.set("tensor.pool_hit_ratio", ratio(hits, hits+misses))
	r.set("train.rows_gathered_per_epoch", t.counter("train.rows_gathered")/e)
}

// speedup2w reports par.speedup_2w: the median epoch time of a fit capped
// at one par worker over that of a fit at the default worker count.
func speedup2w(r *result, fit func() ([]time.Duration, error), warm int) error {
	def, err := fit()
	if err != nil {
		return err
	}
	prev := par.SetMaxWorkers(1)
	one, err := fit()
	par.SetMaxWorkers(prev)
	if err != nil {
		return err
	}
	d1 := quantile(seconds(timed([][]time.Duration{one}, warm)), 0.5)
	dd := quantile(seconds(timed([][]time.Duration{def}, warm)), 0.5)
	r.set("par.speedup_2w", ratio(d1, dd))
	return nil
}

// stamp is the provenance printed with every result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Nodes      int     `json:"nodes"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	SourceHash string  `json:"source_sha256"`
	FastF32    bool    `json:"fast_f32"`
	NoSIMDEnv  string  `json:"scalegnn_nosimd"`
}

func provenance(name string, opt options) (stamp, error) {
	src, err := sourceHash()
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		Workload: name, Seed: opt.seed, Seconds: opt.seconds.Seconds(),
		Trace: opt.trace, Nodes: opt.scale.nodes,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: gitRev(), SourceHash: src,
		FastF32: tensor.FastF32(), NoSIMDEnv: os.Getenv("SCALEGNN_NOSIMD"),
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev is the checkout's commit, or "none" outside a git checkout; the
// source hash identifies the code either way.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// repoRoot finds the scalegnn module root from the working directory: the
// checkout root, or its parent when run from this directory.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module scalegnn\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no scalegnn go.mod in . or ..")
}

// sourceHash is the SHA-256 of the program's Go sources and go.mod, in
// path order.
func sourceHash() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	add := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		_, err = io.Copy(h, f)
		return err
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "", err
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return add(path)
		})
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
