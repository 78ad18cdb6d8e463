package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"scalegnn/internal/dataset"
	"scalegnn/internal/graph"
	"scalegnn/internal/models"
	"scalegnn/internal/nn"
	"scalegnn/internal/obs"
	"scalegnn/internal/sampling"
	"scalegnn/internal/tensor"
)

// The replays rebuild a workload's layer stack from the same public
// constructors its model uses and time every layer call from outside, in
// spans of the benchmark's own tracer. They never install an ApplyHook: a
// hook routes ApplyInto away from its own kernel.

// reconcileTolerance bounds |replayed step / train.batch - 1|: the replayed
// layers plus loss plus Adam must account for the program's own batch span
// to within this share.
const reconcileTolerance = 0.25

// replayer owns the replay's tracer and the shape-derived work counts.
type replayer struct {
	tr        *obs.Tracer
	flops     float64 // FLOPs of every timed Linear call, from shapes
	spmmBytes float64 // bytes every timed ApplyInto moves, from nnz and widths
}

// linear times one Linear call under parent, counting its FLOPs: 2·r·in·out
// forward, twice that backward (input and weight gradients).
func (p *replayer) linear(parent *obs.Span, rows, in, out int, backward bool, call func()) {
	sp := parent.Child("tensor.linear")
	call()
	sp.End()
	f := 2 * float64(rows) * float64(in) * float64(out)
	if backward {
		f *= 2
	}
	p.flops += f
}

// spmm times one ApplyInto under parent, counting the bytes it moves: per
// nonzero a 4-byte column index, an 8-byte coefficient and a source row;
// per row the destination row, its offset and its self-loop coefficient.
func (p *replayer) spmm(parent *obs.Span, op *graph.Operator, nnz int, x, dst *tensor.Matrix) {
	sp := parent.Child("graph.spmm")
	op.ApplyInto(x, dst)
	sp.End()
	row := 8 * float64(x.Cols)
	p.spmmBytes += float64(nnz)*(12+row) + float64(op.G.N)*(row+16)
}

// replayConv is models.GCNConvOf's forward and backward with the SpMM and
// the Linear call timed apart.
type replayConv struct {
	conv   *models.GCNConv
	nnz    int
	px, gx tensor.Buf
}

func (c *replayConv) forward(p *replayer, sp *obs.Span, x *tensor.Matrix) *tensor.Matrix {
	px := c.px.Next(x.Rows, x.Cols)
	p.spmm(sp, c.conv.Op, c.nnz, x, px)
	var y *tensor.Matrix
	p.linear(sp, x.Rows, x.Cols, c.conv.Lin.W.Value.Cols, false, func() { y = c.conv.Lin.Forward(px, true) })
	return y
}

func (c *replayConv) backward(p *replayer, sp *obs.Span, g *tensor.Matrix) *tensor.Matrix {
	var gin *tensor.Matrix
	p.linear(sp, g.Rows, c.conv.Lin.W.Value.Rows, g.Cols, true, func() { gin = c.conv.Lin.Backward(g) })
	gx := c.gx.Next(gin.Rows, gin.Cols)
	p.spmm(sp, c.conv.Op, c.nnz, gin, gx)
	return gx
}

// replay is a workload's layer stack rebuilt from public constructors.
// step runs one replayed training step, recorded as a replay.step span on
// the replay's own tracer, whose children are the layers, the loss and the
// Adam step; report sets the layer metrics from the recorded steps.
type replay struct {
	p       *replayer
	step    func()
	report  func(r *result, spans *spanSet)
	release func()
	reset   func() // drops what the steps so far recorded
}

// replayGCN replays gcn-fullbatch's training step: the stack models.GCN
// builds for two layers (dropout, conv, ReLU, dropout, conv), the masked
// loss over the training rows, the backward pass and the Adam step.
func replayGCN(opt options, r *result, ds *dataset.Dataset) (*replay, error) {
	cfg := trainConfig(opt.seed, 1)
	rng := tensor.NewRand(opt.seed)
	start := time.Now()
	op := graph.NewOperator(ds.G, graph.NormSymmetric, true)
	r.set("setup.operator_s", time.Since(start).Seconds())
	nnz := op.NNZ()
	conv1 := &replayConv{conv: &models.GCNConv{Op: op, Lin: nn.NewLinear(ds.X.Cols, cfg.Hidden, true, rng)}, nnz: nnz}
	conv2 := &replayConv{conv: &models.GCNConv{Op: op, Lin: nn.NewLinear(cfg.Hidden, ds.NumClasses, true, rng)}, nnz: nnz}
	drop0, relu, drop3 := nn.NewDropout(cfg.Dropout, rng), nn.NewReLU(), nn.NewDropout(cfg.Dropout, rng)
	params := append(conv1.conv.Params(), conv2.conv.Params()...)
	adam := nn.NewAdam(cfg.LR)
	adam.WeightDecay = cfg.WeightDecay

	rp := &replay{p: &replayer{tr: obs.NewTracer()}, release: adam.Reset}
	rp.reset = func() { rp.p = &replayer{tr: obs.NewTracer()} }
	layer := func(st *obs.Span, name string, f func(sp *obs.Span)) {
		sp := st.Child(name)
		f(&sp)
		sp.End()
	}
	rp.step = func() {
		p := rp.p
		st := p.tr.Start("replay.step")
		h := ds.X
		layer(&st, "nn.0-dropout.fwd", func(*obs.Span) { h = drop0.Forward(h, true) })
		layer(&st, "nn.1-gcnconv.fwd", func(sp *obs.Span) { h = conv1.forward(p, sp, h) })
		layer(&st, "nn.2-relu.fwd", func(*obs.Span) { h = relu.Forward(h, true) })
		layer(&st, "nn.3-dropout.fwd", func(*obs.Span) { h = drop3.Forward(h, true) })
		layer(&st, "nn.4-gcnconv.fwd", func(sp *obs.Span) { h = conv2.forward(p, sp, h) })
		var grad *tensor.Matrix
		layer(&st, "nn.loss", func(*obs.Span) { grad = maskedLoss(h, ds.Labels, ds.TrainIdx) })
		g := grad
		layer(&st, "nn.4-gcnconv.bwd", func(sp *obs.Span) { g = conv2.backward(p, sp, g) })
		layer(&st, "nn.3-dropout.bwd", func(*obs.Span) { g = drop3.Backward(g) })
		layer(&st, "nn.2-relu.bwd", func(*obs.Span) { g = relu.Backward(g) })
		layer(&st, "nn.1-gcnconv.bwd", func(sp *obs.Span) { g = conv1.backward(p, sp, g) })
		layer(&st, "nn.0-dropout.bwd", func(*obs.Span) { drop0.Backward(g) })
		tensor.PutBuf(grad)
		layer(&st, "nn.adam_step", func(*obs.Span) { adam.Step(params) })
		st.End()
	}
	rp.report = func(r *result, spans *spanSet) {
		for _, name := range []string{"0-dropout", "1-gcnconv", "2-relu", "3-dropout", "4-gcnconv"} {
			r.set("nn."+name+".fwd_ms", quantile(millis(spans.durs("nn."+name+".fwd")), 0.5))
			r.set("nn."+name+".bwd_ms", quantile(millis(spans.durs("nn."+name+".bwd")), 0.5))
		}
		r.set("nn.loss_ms", quantile(millis(spans.durs("nn.loss")), 0.5))
		r.set("nn.adam_step_ms", quantile(millis(spans.durs("nn.adam_step")), 0.5))
		// One full-batch step is one epoch's training work.
		setKernelMetrics(r, rp.p, spans, 1)
	}
	return rp, nil
}

// maskedLoss is the full-batch loss of models.GCN: softmax cross-entropy
// over the training rows, with the gradient scattered back to every row.
// The caller releases the returned gradient with tensor.PutBuf.
func maskedLoss(logits *tensor.Matrix, labels, idx []int) *tensor.Matrix {
	sel := tensor.GetBuf(len(idx), logits.Cols)
	logits.SelectRowsInto(idx, sel)
	gSel := tensor.GetBuf(len(idx), logits.Cols)
	nn.SoftmaxCrossEntropyInto(sel, dataset.LabelsAt(labels, idx), gSel)
	tensor.PutBuf(sel)
	full := tensor.GetZeroBuf(logits.Rows, logits.Cols)
	full.ScatterAddRows(idx, gSel)
	tensor.PutBuf(gSel)
	return full
}

// sageLayer is one layer of models.GraphSAGE rebuilt from public parts:
// self and neighbour Linear transforms over a sampled block, summed, with
// an optional ReLU.
type sageLayer struct {
	self, neigh *nn.Linear
	relu        *nn.ReLU
	block       *sampling.Block
	iota        []int
	selfBuf     tensor.Buf
}

func (l *sageLayer) forward(p *replayer, sp *obs.Span, block *sampling.Block, h *tensor.Matrix) *tensor.Matrix {
	l.block = block
	l.iota = l.iota[:0]
	for i := range block.Dsts {
		l.iota = append(l.iota, i)
	}
	selfFeats := l.selfBuf.Next(len(l.iota), h.Cols)
	h.SelectRowsInto(l.iota, selfFeats)
	ag := sp.Child("sampling.aggregate")
	agg := block.Aggregate(h)
	ag.End()
	out := l.self.W.Value.Cols
	var y, yn *tensor.Matrix
	p.linear(sp, len(l.iota), h.Cols, out, false, func() { y = l.self.Forward(selfFeats, true) })
	p.linear(sp, len(l.iota), h.Cols, out, false, func() { yn = l.neigh.Forward(agg, true) })
	y.Add(yn)
	if l.relu != nil {
		y = l.relu.Forward(y, true)
	}
	return y
}

func (l *sageLayer) backward(p *replayer, sp *obs.Span, g *tensor.Matrix) *tensor.Matrix {
	if l.relu != nil {
		g = l.relu.Backward(g)
	}
	in := l.self.W.Value.Rows
	var gSelf, gAgg *tensor.Matrix
	p.linear(sp, g.Rows, in, g.Cols, true, func() { gSelf = l.self.Backward(g) })
	p.linear(sp, g.Rows, in, g.Cols, true, func() { gAgg = l.neigh.Backward(g) })
	ag := sp.Child("sampling.aggregate")
	gSrc := l.block.AggregateBackward(gAgg)
	ag.End()
	gSrc.ScatterAddRows(l.iota, gSelf)
	return gSrc
}

// replaySAGE replays sage-sampled's training step on the seed's shuffled
// training batches: two-hop neighbour sampling, the feature gather, two
// SAGE layers, the loss, the backward pass and the Adam step.
func replaySAGE(opt options, r *result, ds *dataset.Dataset) (*replay, error) {
	cfg := trainConfig(opt.seed, 1)
	rng := tensor.NewRand(opt.seed)
	sampler, err := sampling.NewNeighborSampler(ds.G, 5)
	if err != nil {
		return nil, err
	}
	layers := []*sageLayer{
		{self: nn.NewLinear(ds.X.Cols, cfg.Hidden, true, rng), neigh: nn.NewLinear(ds.X.Cols, cfg.Hidden, false, rng), relu: nn.NewReLU()},
		{self: nn.NewLinear(cfg.Hidden, ds.NumClasses, true, rng), neigh: nn.NewLinear(cfg.Hidden, ds.NumClasses, false, rng)},
	}
	var params []*nn.Param
	for _, l := range layers {
		params = append(params, l.self.Params()...)
		params = append(params, l.neigh.Params()...)
	}
	adam := nn.NewAdam(cfg.LR)
	adam.WeightDecay = cfg.WeightDecay

	batches := (len(ds.TrainIdx) + cfg.BatchSize - 1) / cfg.BatchSize
	perm := tensor.Perm(len(ds.TrainIdx), rng)
	var (
		xb   tensor.Buf
		uniq []float64
		next int
	)
	rp := &replay{p: &replayer{tr: obs.NewTracer()}}
	rp.release = func() {
		adam.Reset()
		xb.Release()
	}
	rp.reset = func() { rp.p, uniq = &replayer{tr: obs.NewTracer()}, nil }
	rp.step = func() {
		p := rp.p
		dsts, labels := sageBatch(ds, perm, next%batches, cfg.BatchSize)
		next++
		st := p.tr.Start("replay.step")
		sp := st.Child("sampling.sample")
		blocks := sampler.SampleLayers(dsts, len(layers), rng)
		sp.End()
		deepest := blocks[len(blocks)-1]
		uniq = append(uniq, float64(deepest.NumUniqueSrcs()))

		sp = st.Child("train.gather")
		idx := make([]int, len(deepest.Srcs))
		for i, v := range deepest.Srcs {
			idx[i] = int(v)
		}
		h := xb.Next(len(idx), ds.X.Cols)
		ds.X.SelectRowsInto(idx, h)
		sp.End()
		for i, l := range layers {
			sp = st.Child(fmt.Sprintf("sage.%d.fwd", i))
			h = l.forward(p, &sp, blocks[len(blocks)-1-i], h)
			sp.End()
		}
		sp = st.Child("nn.loss")
		grad := tensor.GetBuf(h.Rows, h.Cols)
		nn.SoftmaxCrossEntropyInto(h, labels, grad)
		sp.End()
		g := grad
		for i := len(layers) - 1; i >= 0; i-- {
			sp = st.Child(fmt.Sprintf("sage.%d.bwd", i))
			g = layers[i].backward(p, &sp, g)
			sp.End()
		}
		tensor.PutBuf(grad)
		sp = st.Child("nn.adam_step")
		adam.Step(params)
		sp.End()
		st.End()
	}
	rp.report = func(r *result, spans *spanSet) {
		r.set("nn.loss_ms", quantile(millis(spans.durs("nn.loss")), 0.5))
		r.set("nn.adam_step_ms", quantile(millis(spans.durs("nn.adam_step")), 0.5))
		r.set("sampling.aggregate_ms_per_batch", perStep(spans, "sampling.aggregate"))
		r.set("sampling.unique_srcs_per_batch", quantile(uniq, 0.5))
		r.set("train.rows_gathered_per_epoch", quantile(uniq, 0.5)*float64(batches))
		setKernelMetrics(r, rp.p, spans, batches)
	}
	return rp, nil
}

// sageBatch returns batch b of the permuted training rows and its labels.
func sageBatch(ds *dataset.Dataset, perm []int, b, size int) ([]int32, []int) {
	lo := b * size
	hi := min(lo+size, len(perm))
	dsts := make([]int32, 0, hi-lo)
	labels := make([]int, 0, hi-lo)
	for _, i := range perm[lo:hi] {
		v := ds.TrainIdx[i]
		dsts = append(dsts, int32(v))
		labels = append(labels, ds.Labels[v])
	}
	return dsts, labels
}

// perStep is the median over replayed steps of the summed duration of the
// spans called name inside each step, in milliseconds.
func perStep(spans *spanSet, name string) float64 {
	var per []float64
	for _, st := range spans.named("replay.step") {
		var sum time.Duration
		for _, sp := range within(spans.named(name), []obs.SpanRecord{st}) {
			sum += sp.Dur
		}
		per = append(per, ms(sum))
	}
	return quantile(per, 0.5)
}

// setKernelMetrics reports the matmul and SpMM time per epoch (a replayed
// step's share times the steps in an epoch) and their computed rates.
func setKernelMetrics(r *result, p *replayer, spans *spanSet, stepsPerEpoch int) {
	steps := float64(len(spans.named("replay.step")))
	linear := perStep(spans, "tensor.linear")
	r.set("tensor.matmul_ms_per_epoch", linear*float64(stepsPerEpoch))
	var total time.Duration
	for _, d := range spans.durs("tensor.linear") {
		total += d
	}
	r.set("tensor.matmul_gflops", ratio(p.flops, total.Seconds())/1e9)
	if p.spmmBytes > 0 {
		r.set("graph.spmm_ms_per_epoch", perStep(spans, "graph.spmm")*float64(stepsPerEpoch))
		total = 0
		for _, d := range spans.durs("graph.spmm") {
			total += d
		}
		r.set("graph.spmm_gbps", ratio(p.spmmBytes, total.Seconds())/1e9)
	}
	r.note("replay: %.0f steps; tensor.matmul_gflops from 2·rows·in·out FLOPs per Linear forward (×2 backward); graph.spmm_gbps from nnz·(12+8·cols)+n·(8·cols+16) bytes per ApplyInto (computed, not measured)", steps)
}

// reconcile pairs each replayed step with the program's train.batch span
// it ran right after and checks that the step's direct children (layers,
// loss, Adam) sum to the batch within reconcileTolerance: the median over
// pairs of their ratio, a drift failing the run. Timing each pair back to
// back keeps changes in host speed out of the ratio. It reports the
// relative error and notes every replayed span's median self time. A test
// tampers with the batch times to show the check can fail.
func reconcile(opt options, r *result, spans *spanSet, batches []obs.SpanRecord) error {
	steps := spans.named("replay.step")
	if len(steps) == 0 || len(steps) != len(batches) {
		return fmt.Errorf("%d replayed steps for %d train.batch spans", len(steps), len(batches))
	}
	var sums, rats []float64
	for i, st := range steps {
		var sum time.Duration
		for _, k := range spans.children(st.ID) {
			sum += k.Dur
		}
		b := batches[i].Dur
		if opt.tamper.reconcile {
			b *= 2
		}
		sums = append(sums, ms(sum))
		rats = append(rats, ratio(float64(sum), float64(b)))
	}
	self := map[string][]float64{}
	for _, sp := range spans.spans {
		self[sp.Name] = append(self[sp.Name], ms(spans.selfTime(sp)))
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.3f", n, quantile(self[n], 0.5))
	}
	r.note("replay self time, median ms:%s", b.String())

	rat := quantile(rats, 0.5)
	r.set("trace.reconcile_err", math.Abs(rat-1))
	r.check(math.Abs(rat-1) <= reconcileTolerance,
		"reconcile: replayed layers+loss+Adam over train.batch, median of %d pairs %.3f, outside the ±%.0f%% tolerance",
		len(rats), rat, reconcileTolerance*100)
	r.note("reconcile: replayed layers+loss+Adam %.2f ms vs train.batch %.2f ms (medians); median ratio of %d back-to-back pairs %.3f, tolerance ±%.0f%%",
		quantile(sums, 0.5), quantile(millis(spanDurs(batches)), 0.5), len(rats), rat, reconcileTolerance*100)
	return nil
}
