package main

import (
	"fmt"
	"math"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/models"
	"scalegnn/internal/train"
)

// fitRun is one Fit of a training workload.
type fitRun struct {
	epochs  []time.Duration // wall time of every epoch, warm-up included
	wall    time.Duration   // Fit call, operator build and final evaluation included, heap probe excluded
	fp      uint64          // models.PredictionFingerprint of the full-graph predictions
	testAcc float64
}

// fitModel trains a fresh model for cfg.Epochs epochs and fingerprints its
// predictions; a non-nil heap samples the live heap at the last epoch.
func fitModel(newModel func() (models.Trainer, error), ds *dataset.Dataset, cfg models.TrainConfig, heap *heapProbe) (fitRun, error) {
	m, err := newModel()
	if err != nil {
		return fitRun{}, err
	}
	clock := &epochClock{heap: heap, epochs: cfg.Epochs}
	cfg.Hooks = append(append([]train.Hook(nil), cfg.Hooks...), clock)
	probed := heap.probeTime()
	start := time.Now()
	rep, err := m.Fit(ds, cfg)
	wall := time.Since(start) - (heap.probeTime() - probed)
	if err != nil {
		return fitRun{}, fmt.Errorf("fit %s: %w", m.Name(), err)
	}
	pred, err := m.Predict(ds)
	if err != nil {
		return fitRun{}, fmt.Errorf("predict %s: %w", m.Name(), err)
	}
	return fitRun{clock.epoch, wall, models.PredictionFingerprint(pred), rep.TestAcc}, nil
}

// fitLoop runs fits fits, sampling the live heap in each.
func fitLoop(r *result, fits int, fit func(*heapProbe) (fitRun, error)) ([]fitRun, error) {
	var heap heapProbe
	var runs []fitRun
	for len(runs) < fits {
		fr, err := fit(&heap)
		if err != nil {
			return nil, err
		}
		runs = append(runs, fr)
	}
	r.set("peak_heap_mb", heap.mb())
	return runs, nil
}

// fitCount sizes a timed phase in whole fits: enough epochs to last about
// opt.seconds at the workload's nominal epoch time (its epoch time at the
// time of writing on a 2-core Xeon). A fixed count keeps the number of
// timed epochs, and so the tail percentile, the same from run to run.
func fitCount(opt options, epochsPerFit int, nominalEpoch time.Duration) int {
	n := int(math.Ceil(float64(opt.seconds) / float64(nominalEpoch) / float64(epochsPerFit)))
	return max(n, opt.scale.minFits)
}

// reportFits sets the epoch, accuracy and rate metrics of a timed phase and
// checks that every fit of the seed made identical predictions with an
// identical test accuracy.
func reportFits(opt options, r *result, runs []fitRun, trainNodes int) {
	var epochs [][]time.Duration
	var rates []float64
	for i, fr := range runs {
		epochs = append(epochs, fr.epochs)
		rates = append(rates, float64(trainNodes*len(fr.epochs))/fr.wall.Seconds())
		r.ops(len(fr.epochs))
		r.note("fit %d: %d epochs, ms: %.1f", i, len(fr.epochs), millis(fr.epochs))
	}
	setEpochMetrics(r, timed(epochs, opt.scale.warm))
	r.set("test_acc", runs[0].testAcc)
	// The median over fits, so one fit slowed by a burst of host load
	// does not move it.
	r.set("work_rate", quantile(rates, 0.5))
	checkRepeatable(opt, r, runs[0].fp, runs[0].testAcc, runs)
}

// checkRepeatable compares every fit with the expected fingerprint and
// test accuracy (those of the first fit unless a test tampers with them).
func checkRepeatable(opt options, r *result, fp uint64, acc float64, runs []fitRun) {
	if opt.tamper.fingerprint {
		fp ^= 1
	}
	if opt.tamper.testAcc {
		acc += 1e-4
	}
	for i, fr := range runs {
		r.check(fr.fp == fp, "fit %d: prediction fingerprint %016x, want %016x", i, fr.fp, fp)
		r.check(fr.testAcc == acc, "fit %d: test accuracy %.6f, want %.6f", i, fr.testAcc, acc)
	}
	r.note("prediction fingerprint %016x, test accuracy %.4f, over %d fits", runs[0].fp, runs[0].testAcc, len(runs))
}

func newGCN() (models.Trainer, error)  { return models.NewGCN(2) }
func newSAGE() (models.Trainer, error) { return models.NewGraphSAGE(2, 5) }

// setupDataset is the set-up of the single-process training workloads.
func setupDataset(opt options, r *result) (*dataset.Dataset, error) {
	return timeSetup(opt, r, func() (*dataset.Dataset, error) {
		return dataset.Generate(datasetConfig(opt.scale.nodes, opt.seed))
	}, func(*dataset.Dataset) {})
}

func runGCNFullBatch(opt options, r *result) error {
	return runSingleProcess(opt, r, newGCN, opt.scale.gcnEpochs, 250*time.Millisecond, replayGCN)
}

func runSAGESampled(opt options, r *result) error {
	return runSingleProcess(opt, r, newSAGE, opt.scale.sageEpochs, 550*time.Millisecond, replaySAGE)
}

// replayFunc rebuilds a workload's layer stack from public constructors, to
// time each layer call in a traced run.
type replayFunc func(opt options, r *result, ds *dataset.Dataset) (*replay, error)

// replayHook runs one replayed step right after each program batch of a
// fit's epochs from epoch from on, so that each replayed step is timed
// next to the batch it is compared with.
type replayHook struct {
	rp   *replay
	from int
}

func (h replayHook) OnBatch(b train.BatchEnd) {
	if b.Epoch >= h.from {
		h.rp.step()
	}
}

func (replayHook) OnEpoch(train.EpochEnd) {}

// runSingleProcess is gcn-fullbatch and sage-sampled: fixed-epoch fits of
// one model on the seed's dataset.
func runSingleProcess(opt options, r *result, newModel func() (models.Trainer, error), epochs int, nominalEpoch time.Duration, replay replayFunc) error {
	ds, err := setupDataset(opt, r)
	if err != nil {
		return err
	}
	fit := func(n int, hooks ...train.Hook) (fitRun, error) {
		cfg := trainConfig(opt.seed, n)
		cfg.Hooks = hooks
		return fitModel(newModel, ds, cfg, nil)
	}
	// An untimed warm-up fit lets the heap and the buffer pools grow first.
	if _, err := fit(2); err != nil {
		return err
	}
	if opt.trace {
		return traceSingleProcess(opt, r, ds, epochs, fit, replay)
	}
	runs, err := fitLoop(r, fitCount(opt, epochs, nominalEpoch), func(heap *heapProbe) (fitRun, error) {
		return fitModel(newModel, ds, trainConfig(opt.seed, epochs), heap)
	})
	if err != nil {
		return err
	}
	reportFits(opt, r, runs, len(ds.TrainIdx))
	return nil
}

// traceSingleProcess is the traced run of a single-process training
// workload: an untraced fit, a traced fit, a traced fit with the layer
// replay stepping after each of its batches, and the one-worker speed
// probe.
func traceSingleProcess(opt options, r *result, ds *dataset.Dataset, epochs int, fit func(int, ...train.Hook) (fitRun, error), newReplay replayFunc) error {
	r.set("setup.dataset_s", r.values["setup_s"])
	plain, err := fit(epochs)
	if err != nil {
		return err
	}
	t := startTracing()
	traced, err := fit(epochs)
	spans := indexSpans(t.stop())
	if err != nil {
		return err
	}
	setCounterMetrics(r, t, len(traced.epochs))
	r.ops(len(plain.epochs) + len(traced.epochs))
	setOverhead(r, opt, plain.epochs, traced.epochs)

	r.set("train.batch_ms.p50", quantile(millis(spanDurs(spans.afterWarm("train.batch", opt.scale.warm))), 0.5))
	r.set("train.validate_ms.p50", quantile(millis(spanDurs(spans.afterWarm("train.validate", opt.scale.warm))), 0.5))
	r.set("train.shuffle_ms", quantile(millis(spans.durs("train.shuffle")), 0.5))
	if samples := within(spans.named("sampling.layers"), spans.named("train.batch")); len(samples) > 0 {
		r.set("sampling.sample_ms_per_batch", quantile(millis(spanDurs(samples)), 0.5))
	}

	rp, err := newReplay(opt, r, ds)
	if err != nil {
		return err
	}
	defer rp.release()
	for range opt.scale.warm {
		rp.step()
	}
	rp.reset()
	// The last epochs of a fit of the workload's length pair each batch
	// with a replayed step: enough of them for replaySteps pairs, and two
	// at least, after the warm-up epochs.
	perEpoch := max(1, len(spans.afterWarm("train.batch", opt.scale.warm))/max(1, len(traced.epochs)-opt.scale.warm))
	from := max(opt.scale.warm, epochs-max(2, (opt.scale.replaySteps+perEpoch-1)/perEpoch))
	t = startTracing()
	paired, err := fit(epochs, replayHook{rp, from})
	programSpans := indexSpans(t.stop())
	if err != nil {
		return err
	}
	r.ops(len(paired.epochs))
	checkRepeatable(opt, r, plain.fp, plain.testAcc, []fitRun{plain, traced, paired})
	replayed := indexSpans(rp.p.tr.Snapshot())
	rp.report(r, replayed)
	if err := reconcile(opt, r, replayed, programSpans.afterWarm("train.batch", from)); err != nil {
		return err
	}
	return speedup2w(r, func() ([]time.Duration, error) {
		fr, err := fit(opt.scale.speedEpochs)
		return fr.epochs, err
	}, opt.scale.warm)
}

// setOverhead reports trace.overhead_frac: the traced median epoch over the
// untraced one, minus one.
func setOverhead(r *result, opt options, plain, traced []time.Duration) {
	p := quantile(seconds(timed([][]time.Duration{plain}, opt.scale.warm)), 0.5)
	t := quantile(seconds(timed([][]time.Duration{traced}, opt.scale.warm)), 0.5)
	r.set("trace.overhead_frac", ratio(t, p)-1)
}
