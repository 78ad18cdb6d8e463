package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/nn"
	"scalegnn/internal/serve"
	"scalegnn/internal/tensor"
)

// swapSeed derives the training seed of the model swapped in beside the
// workload seed's own.
const swapSeed = 0x9e37_79b9_7f4a_7c15

// serving is serve-zipf-swap's set-up: two SGC-K2 models trained on the
// seed's dataset from different seeds, an engine with gnnserve's defaults
// serving the first, and the HTTP server on loopback.
type serving struct {
	ds     *dataset.Dataset
	models [2]*models.SGC
	reps   [2]*models.Report
	eng    *serve.Engine
	srv    *serve.Server

	dataset time.Duration
	fit     time.Duration // both fits, precompute included
}

func newSGC() (models.Trainer, error) { return models.NewSGC(2) }

// fitSGC trains one SGC-K2 and warms its scorer.
func fitSGC(ds *dataset.Dataset, seed uint64, epochs int) (*models.SGC, *models.Report, error) {
	m, err := models.NewSGC(2)
	if err != nil {
		return nil, nil, err
	}
	rep, err := m.Fit(ds, trainConfig(seed, epochs))
	if err != nil {
		return nil, nil, fmt.Errorf("fit %s: %w", m.Name(), err)
	}
	if err := m.Score([]int{0}, tensor.New(1, m.Classes())); err != nil {
		return nil, nil, err
	}
	return m, rep, nil
}

func openServing(opt options) (*serving, error) {
	s := &serving{}
	start := time.Now()
	ds, err := dataset.Generate(datasetConfig(opt.scale.nodes, opt.seed))
	if err != nil {
		return nil, err
	}
	s.ds, s.dataset = ds, time.Since(start)
	start = time.Now()
	for k, seed := range []uint64{opt.seed, opt.seed ^ swapSeed} {
		m, rep, err := fitSGC(ds, seed, opt.scale.sgcEpochs)
		if err != nil {
			return nil, err
		}
		s.models[k], s.reps[k] = m, rep
	}
	s.fit = time.Since(start)
	s.eng = serve.NewEngine(serve.Config{
		MaxBatch: 256, CacheSize: 4096,
		SLO: serve.SLOConfig{Target: slo, Objective: 0.99, Window: time.Minute, BurnThreshold: 1},
	})
	s.eng.Swap(s.models[0], serve.SwapInfo{Source: "fit"})
	s.srv = serve.NewServer(s.eng, nil)
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		s.eng.Close()
		return nil, err
	}
	return s, nil
}

func (s *serving) close() {
	if err := s.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server close:", err)
	}
	s.eng.Close()
}

// generations scores every node offline with both models: the reference
// every verified response is compared with. It runs before any request,
// so the engine's dispatcher is not scoring concurrently.
func (s *serving) generations() ([2]generation, error) {
	var gens [2]generation
	all := make([]int, s.ds.G.N)
	for i := range all {
		all[i] = i
	}
	for k, m := range s.models {
		logit := tensor.New(len(all), m.Classes())
		if err := m.Score(all, logit); err != nil {
			return gens, err
		}
		gens[k] = generation{model: m, logit: logit, pred: nn.Argmax(logit)}
	}
	return gens, nil
}

func runServeZipfSwap(opt options, r *result) error {
	s, err := timeSetup(opt, r, func() (*serving, error) { return openServing(opt) }, (*serving).close)
	if err != nil {
		return err
	}
	defer s.close()
	gens, err := s.generations()
	if err != nil {
		return err
	}
	g := newLoadgen(s.srv.Addr(), buildScript(opt.seed, s.ds.G.N), runtime.NumCPU(), s.eng, gens)
	defer g.close()
	g.tamper = opt.tamper.logit

	r.set("test_acc", s.reps[0].TestAcc)
	if opt.trace {
		return traceServe(opt, r, s, g)
	}

	// A climb finds the knee's neighbourhood; then staircase blocks
	// alternate with refits of the swapped-in SGC (the retraining that
	// precedes a swap), so the epochs and the rungs are both sampled over
	// the whole timed phase.
	start := time.Now()
	best, ran := g.climb(firstRung, opt.scale.rungDur)
	countRungs(r, ran)
	if best < 0 {
		// Wrong answers fail every rung; the run then reports them.
		if r.correct() {
			return errNoRung
		}
		r.set("epoch_s.p50", 0)
		r.set("epoch_s.tail", 0)
		r.set("peak_heap_mb", 0)
		r.set("work_rate", 0)
		return nil
	}
	var (
		heap   heapProbe
		fits   []fitRun
		stairs []*rungStats
	)
	refit := trainConfig(opt.seed^swapSeed, opt.scale.sgcEpochs)
	for at := best; len(fits) < opt.scale.minFits || time.Since(start) < opt.seconds-opt.scale.fixedDur; {
		at, ran = g.staircase(at, opt.scale.stairBlock, opt.scale.rungDur)
		countRungs(r, ran)
		stairs = append(stairs, ran...)
		fr, err := fitModel(newSGC, s.ds, refit, &heap)
		if err != nil {
			return err
		}
		fits = append(fits, fr)
	}
	knee := stairKnee(stairs)
	fixed := g.rung(knee/2, opt.scale.fixedDur)
	countRungs(r, []*rungStats{fixed})
	r.set("peak_heap_mb", heap.mb())
	r.set("work_rate", knee)
	r.note("knee %.0f req/s: geometric mean of %d staircase rungs from rung %.0f req/s", knee, len(stairs), ladder()[best])
	reportFixed(r, fixed)

	var epochs [][]time.Duration
	for _, fr := range fits {
		epochs = append(epochs, fr.epochs)
		r.ops(len(fr.epochs))
	}
	setEpochMetrics(r, timed(epochs, opt.scale.warm))
	// Every refit must reproduce the swapped-in model, whose predictions
	// are the argmax of its offline Score.
	checkRepeatable(opt, r, models.PredictionFingerprint(gens[1].pred), s.reps[1].TestAcc, fits)
	return nil
}

var errNoRung = fmt.Errorf("not even the lowest rung of the ladder met the %v SLO", slo)

// countRungs counts each rung's requests and swaps into the run's
// operations and failures, and notes its load-generator figures.
func countRungs(r *result, ran []*rungStats) {
	for _, st := range ran {
		r.ops(st.sent - len(st.failures) + len(st.swaps))
		if len(st.failures) > 0 {
			r.fail(len(st.failures), "at %.0f req/s, first: %s", st.rate, st.failures[0])
		}
		verdict := "pass"
		if !st.passes() {
			verdict = "fail"
		}
		r.note("rung %6.0f req/s: %s, sent %d, p99 %.2f ms from due, achieved/offered %.3f, late p50 %.3f p99 %.3f ms, aborted %v",
			st.rate, verdict, st.sent, ms(st.p99()), st.achieved/st.rate,
			quantile(millis(st.late), 0.5), quantile(millis(st.late), 0.99), st.aborted)
	}
}

// reportFixed sets the metrics of the fixed-rate phase.
func reportFixed(r *result, st *rungStats) {
	due := millis(st.fromDue)
	r.set("serve.p50_ms", quantile(due, 0.5))
	r.set("serve.p99_ms", quantile(due, 0.99))
	r.set("serve.service_ms.p50", quantile(millis(st.service), 0.5))
	r.set("serve.service_ms.p99", quantile(millis(st.service), 0.99))
	r.set("serve.post_swap_p99_ms", quantile(millis(st.postSwap), 0.99))
	var swaps []time.Duration
	for _, sw := range st.swaps {
		swaps = append(swaps, sw.dur)
	}
	r.set("serve.swap_ms", quantile(millis(swaps), 0.5))
	r.set("loadgen.late_ms.p50", quantile(millis(st.late), 0.5))
	r.set("loadgen.late_ms.p99", quantile(millis(st.late), 0.99))
	r.set("loadgen.achieved_over_offered", st.achieved/st.rate)
	r.note("fixed rate %.0f req/s: serve.p50_ms is timed from due time, so it is mostly the Go timer's sleep overshoot (loadgen.late_ms); serve.service_ms is timed from the send", st.rate)
}

// traceServe is serve-zipf-swap's traced run: an untraced climb for the
// knee, then the fixed-rate phase untraced and traced, and the one-worker
// speed probe on an SGC fit.
func traceServe(opt options, r *result, s *serving, g *loadgen) error {
	r.set("setup.dataset_s", s.dataset.Seconds())
	r.set("setup.fit_s", s.fit.Seconds())
	r.set("setup.operator_s", s.reps[0].Precompute.Seconds())
	best, ran := g.climb(firstRung, opt.scale.rungDur)
	countRungs(r, ran)
	if best < 0 {
		if r.correct() {
			return errNoRung
		}
		return nil
	}
	knee := ladder()[best]
	r.set("serve.max_rate_at_slo", knee)

	plain := g.rung(knee/2, opt.scale.fixedDur)
	before := s.eng.Registry().Snapshot()
	t := startTracing()
	traced := g.rung(knee/2, opt.scale.fixedDur)
	spans := indexSpans(t.stop())
	after := s.eng.Registry().Snapshot()
	countRungs(r, []*rungStats{plain, traced})
	reportFixed(r, traced)
	r.set("trace.overhead_frac", ratio(quantile(millis(traced.service), 0.5), quantile(millis(plain.service), 0.5))-1)

	var wait []float64
	for _, sp := range spans.named("serve.request") {
		wait = append(wait, ms(sp.Wait))
	}
	r.set("serve.queue_ms.p50", quantile(wait, 0.5))
	r.set("serve.queue_ms.p99", quantile(wait, 0.99))
	var rows []float64
	for _, sp := range spans.named("serve.batch_forward") {
		rows = append(rows, float64(sp.Count))
	}
	r.set("serve.forward_ms.p50", quantile(millis(spans.durs("serve.batch_forward")), 0.5))
	r.set("serve.rows_per_forward", quantile(rows, 0.5))
	hits := after["serve.cache_hits"] - before["serve.cache_hits"]
	misses := after["serve.cache_misses"] - before["serve.cache_misses"]
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	h, m := t.counter("tensor.pool_hits"), t.counter("tensor.pool_misses")
	r.set("tensor.pool_hit_ratio", ratio(h, h+m))

	return speedup2w(r, func() ([]time.Duration, error) {
		fr, err := fitModel(newSGC, s.ds, trainConfig(opt.seed, opt.scale.speedEpochs), nil)
		return fr.epochs, err
	}, opt.scale.warm)
}
