package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/distnet"
	"scalegnn/internal/graph"
	"scalegnn/internal/partition"
	"scalegnn/internal/tensor"
	"scalegnn/internal/train"
)

// shardCount is gcn-2shard's cluster size.
const shardCount = 2

// shard is one in-process member of a distnet cluster, wired the way
// gnntrain -shard wires a process: its own dataset copy, the shared LDG
// assignment, a cluster connection, and the propagation hook on its graph.
type shard struct {
	ds      *dataset.Dataset
	cluster *distnet.Cluster
	hook    *timedHook // nil unless the run is traced
}

// cluster is gcn-2shard's set-up: both shards plus the timing of its parts.
type cluster struct {
	shards  []*shard
	assign  *partition.Assignment
	dataset time.Duration
	part    time.Duration
	open    time.Duration
}

// timedHook wraps a shard's installed distnet.Hook to time every
// propagation it serves: local ApplyRowsInto, exchange and row scatter.
// Each shard's graph is used by that shard's goroutine only.
type timedHook struct {
	inner *distnet.Hook
	busy  time.Duration
	calls int
}

func (h *timedHook) Apply64(op *graph.Operator, x, dst *tensor.Matrix) {
	start := time.Now()
	h.inner.Apply64(op, x, dst)
	h.busy += time.Since(start)
	h.calls++
}

func (h *timedHook) Apply32(op *graph.OperatorOf[float32], x, dst *tensor.Mat[float32]) {
	start := time.Now()
	h.inner.Apply32(op, x, dst)
	h.busy += time.Since(start)
	h.calls++
}

// socketDir is where the shards' unix sockets live: inside the build
// directory of the checkout, one directory per process.
func socketDir() string {
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	return filepath.Join(out, fmt.Sprintf("sock-%d", os.Getpid()))
}

// openCluster generates each shard's dataset, partitions the graph with
// LDG from the seed (as every gnntrain shard does, so one assignment
// serves both), opens the unix-socket mesh in strict sync mode and
// installs the propagation hooks.
func openCluster(opt options, wrap bool) (*cluster, error) {
	c := &cluster{}
	start := time.Now()
	for i := 0; i < shardCount; i++ {
		ds, err := dataset.Generate(datasetConfig(opt.scale.nodes, opt.seed))
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, &shard{ds: ds})
	}
	c.dataset = time.Since(start)

	start = time.Now()
	assign, err := partition.LDG(c.shards[0].ds.G, shardCount, 1.05, tensor.NewRand(opt.seed^0xd157_9a27))
	if err != nil {
		return nil, err
	}
	c.assign = assign
	c.part = time.Since(start)

	start = time.Now()
	dir := socketDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrs := make([]string, shardCount)
	for i := range addrs {
		addrs[i] = "unix:" + filepath.Join(dir, fmt.Sprintf("s%d.sock", i))
	}
	for i, s := range c.shards {
		cl, err := distnet.Open(distnet.Config{Shard: i, N: shardCount, Addrs: addrs, Fingerprint: opt.seed})
		if err != nil {
			c.close()
			return nil, err
		}
		s.cluster = cl
		hook, err := distnet.NewHook(cl, assign)
		if err != nil {
			c.close()
			return nil, err
		}
		if wrap {
			s.hook = &timedHook{inner: hook}
			s.ds.G.SetApplyHook(s.hook)
		} else {
			hook.Attach(s.ds.G)
		}
	}
	c.open = time.Since(start)
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.shards {
		if s.cluster != nil {
			if err := s.cluster.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cluster close:", err)
			}
		}
	}
	if err := os.RemoveAll(socketDir()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: socket dir:", err)
	}
}

// epochHook advances a shard's staleness clock in lockstep with training,
// as gnntrain's distEpochHook does.
type epochHook struct{ c *distnet.Cluster }

func (epochHook) OnBatch(train.BatchEnd) {}

func (h epochHook) OnEpoch(e train.EpochEnd) { h.c.SetEpoch(e.Epoch + 1) }

// fit trains every shard for epochs epochs concurrently and returns each
// shard's fit; a non-nil heap samples the live heap at shard 0's last
// epoch. An exchange failure surfaces as the hook's typed panic and is
// returned as an error.
func (c *cluster) fit(opt options, epochs int, heap *heapProbe) ([]fitRun, error) {
	runs := make([]fitRun, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, s := range c.shards {
		wg.Add(1)
		//lint:ignore naked-go each goroutine is one shard's training process, joined by wg
		go func(i int, s *shard) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					xe, ok := p.(*distnet.ExchangeError)
					if !ok {
						panic(p)
					}
					errs[i] = xe
				}
			}()
			cfg := trainConfig(opt.seed, epochs)
			cfg.Hooks = []train.Hook{epochHook{s.cluster}}
			h := heap
			if i > 0 {
				h = nil
			}
			runs[i], errs[i] = fitModel(newGCN, s.ds, cfg, h)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return runs, nil
}

// checkShards counts the exchange's failed rounds (stale substitutions and
// reconnects fail a strict-sync run) and compares every shard's
// fingerprint with the single-process one.
func (c *cluster) checkShards(opt options, r *result, runs []fitRun, want uint64) {
	if opt.tamper.fingerprint {
		want ^= 1
	}
	for i, s := range c.shards {
		st := s.cluster.Stats()
		r.ops(int(st.Rounds - st.StaleHits))
		r.fail(int(st.StaleHits), "shard %d: stale substitutions in strict sync mode", i)
		r.check(st.Reconnects == 0, "shard %d: %d reconnects", i, st.Reconnects)
		r.check(runs[i].fp == want, "shard %d: prediction fingerprint %016x, single process %016x", i, runs[i].fp, want)
	}
}

// referenceFingerprint fits the same task and seed in one process with no
// hook, the fingerprint every shard must reproduce.
func referenceFingerprint(opt options, epochs int) (uint64, error) {
	ds, err := dataset.Generate(datasetConfig(opt.scale.nodes, opt.seed))
	if err != nil {
		return 0, err
	}
	fr, err := fitModel(newGCN, ds, trainConfig(opt.seed, epochs), nil)
	return fr.fp, err
}

func runGCN2Shard(opt options, r *result) error {
	epochs := opt.scale.shardEpochs
	if opt.trace {
		return traceGCN2Shard(opt, r, epochs)
	}
	want, err := referenceFingerprint(opt, epochs)
	if err != nil {
		return err
	}
	r.note("single-process fingerprint %016x at %d epochs", want, epochs)
	var (
		setups     []time.Duration
		shard0     []fitRun
		trainNodes int
	)
	var heap heapProbe
	for fits := fitCount(opt, epochs, 340*time.Millisecond); len(shard0) < fits; {
		t := time.Now()
		c, err := openCluster(opt, false)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t))
		fits, err := c.fit(opt, epochs, &heap)
		if err == nil {
			c.checkShards(opt, r, fits, want)
			shard0 = append(shard0, fits[0])
			trainNodes = len(c.shards[0].ds.TrainIdx)
		}
		c.close()
		if err != nil {
			return err
		}
	}
	r.set("peak_heap_mb", heap.mb())
	r.set("setup_s", quantile(seconds(setups), 0.5))
	reportFits(opt, r, shard0, trainNodes)
	return nil
}

// traceGCN2Shard is gcn-2shard's traced run: an untraced cluster fit, a
// traced one with the installed hooks wrapped, the single-process
// reference and the one-worker speed probe.
func traceGCN2Shard(opt options, r *result, epochs int) error {
	fitCluster := func(wrap bool, n int) (*cluster, []fitRun, error) {
		c, err := openCluster(opt, wrap)
		if err != nil {
			return nil, nil, err
		}
		runs, err := c.fit(opt, n, nil)
		return c, runs, err
	}
	c, plain, err := fitCluster(false, epochs)
	if c != nil {
		c.close()
	}
	if err != nil {
		return err
	}
	r.set("setup_s", (c.dataset + c.part + c.open).Seconds())
	r.set("setup.dataset_s", c.dataset.Seconds())
	r.set("partition.s", c.part.Seconds())
	r.set("setup.cluster_open_s", c.open.Seconds())
	r.set("partition.edge_cut_frac", partition.Evaluate(c.shards[0].ds.G, c.assign).CutFrac)

	t := startTracing()
	sentBefore, _ := distnet.WireBytes()
	c, traced, err := fitCluster(true, epochs)
	sentAfter, _ := distnet.WireBytes()
	spans := indexSpans(t.stop())
	if err != nil {
		if c != nil {
			c.close()
		}
		return err
	}
	want, err := referenceFingerprint(opt, epochs)
	if err != nil {
		c.close()
		return err
	}
	c.checkShards(opt, r, traced, want)
	r.ops(len(plain[0].epochs) + len(traced[0].epochs))
	setOverhead(r, opt, plain[0].epochs, traced[0].epochs)
	setCounterMetrics(r, t, shardCount*len(traced[0].epochs))
	setDistMetrics(opt, r, c, spans, traced[0], sentAfter-sentBefore)
	c.close()

	batch := quantile(millis(spanDurs(spans.afterWarm("train.batch", opt.scale.warm))), 0.5)
	r.set("train.batch_ms.p50", batch)
	r.set("train.validate_ms.p50", quantile(millis(spanDurs(spans.afterWarm("train.validate", opt.scale.warm))), 0.5))
	r.set("train.shuffle_ms", quantile(millis(spans.durs("train.shuffle")), 0.5))

	return speedup2w(r, func() ([]time.Duration, error) {
		c, runs, err := fitCluster(false, opt.scale.speedEpochs)
		if c != nil {
			c.close()
		}
		if err != nil {
			return nil, err
		}
		return runs[0].epochs, nil
	}, opt.scale.warm)
}

// setDistMetrics reports shard 0's view of the exchange: rounds, time
// waiting on its peer, local SpMM time (hook time not spent in exchange
// rounds), the wait share of an epoch, and the cluster's wire bytes.
func setDistMetrics(opt options, r *result, c *cluster, spans *spanSet, fr fitRun, sent int64) {
	epochs := float64(len(fr.epochs))
	var wait, exchange time.Duration
	for _, x := range spans.named("distnet.exchange") {
		for _, rc := range spans.under(x, "distnet.recv") {
			if rc.Label == "shard1" { // shard 0 waiting on shard 1
				wait += rc.Wait
				exchange += x.Dur
			}
		}
	}
	s0 := c.shards[0]
	local := s0.hook.busy - exchange
	var stale, reconnects int64
	for _, s := range c.shards {
		st := s.cluster.Stats()
		stale += st.StaleHits
		reconnects += st.Reconnects
	}
	epochMs := quantile(millis(timed([][]time.Duration{fr.epochs}, opt.scale.warm)), 0.5)
	r.set("distnet.rounds_per_epoch", float64(s0.cluster.Stats().Rounds)/epochs)
	r.set("distnet.exchange_wait_ms_per_epoch", ms(wait)/epochs)
	r.set("distnet.local_spmm_ms_per_epoch", ms(local)/epochs)
	r.set("graph.spmm_ms_per_epoch", ms(local)/epochs)
	r.set("distnet.wait_share", ratio(ms(wait)/epochs, epochMs))
	r.set("distnet.stale_hits", float64(stale))
	r.set("distnet.reconnects", float64(reconnects))
	r.set("distnet.wire_mb_per_epoch", float64(sent)/(1<<20)/epochs)
	r.note("distnet: shard 0 served %d propagations through its hook", s0.hook.calls)
}

var _ graph.ApplyHook = (*timedHook)(nil)
