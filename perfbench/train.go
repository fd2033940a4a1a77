package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/emstdp"
	"emstdp/internal/energy"
	"emstdp/internal/engine"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
	"emstdp/internal/trace"
)

// One train-chip repetition builds a fresh model, trains it online at
// batch 1 over one seeded pass of the training split (a partial pass
// would also change the class balance the model saw), then classifies
// the test split evalPasses times.
const evalPasses = 3

// orders is the number of seeded training orders a run cycles through.
// A run reports the median over the orders it reached of each order's
// accuracy and simulated figures: single orders reach 0.92-0.99 test
// accuracy, with about one in five down to 0.64-0.89.
const orders = 3

// minAccuracy is the floor a trained Table I cell must clear on the
// test split (chance is 0.1); the paper defaults reach about 0.9.
const minAccuracy = 0.5

// modelSeed fixes the dataset and initial weights; the workload seed
// draws the training order. Across model seeds 1-5 the chip backend's
// synaptic events per sample range over 343k-575k, which moves host
// throughput by as much, while across training orders on one model they
// stay within 1.5%.
const modelSeed = 1

// trainOptions is the Table I cell on the single-die chip backend:
// MNIST, paper defaults (DFA, hidden 100, T=64) on the default 2000/500
// split, one conv pretraining epoch so that set-up repeats several
// times in a run, and evaluation at pool width nproc.
func trainOptions(nproc int) core.Options {
	return core.Options{Dataset: dataset.MNIST, Backend: core.Chip, Mode: emstdp.DFA, PretrainEpochs: 1, Seed: modelSeed, Workers: nproc}
}

// sampleOrder is training order k of the seed: the k-th permutation of
// the training split from a stream apart from the model's own seeds.
func sampleOrder(seed uint64, k, split int) []int {
	src := rng.New(seed ^ 0x6a09e667f3bcc909)
	order := src.Perm(split)
	for ; k > 0; k-- {
		order = src.Perm(split)
	}
	return order
}

// orderOf is the training order repetition i uses. An untraced run
// cycles through the orders; a traced run gives each untraced
// repetition's order to the traced one after it, so their predictions
// can be compared.
func (r *run) orderOf(i int) int {
	if r.traced {
		i /= 2
	}
	return i % orders
}

// trainRep is what one repetition measured.
type trainRep struct {
	stages
	steps
	setup, train, eval  time.Duration
	trained, classified int
	predict             []time.Duration
	accuracy            float64
	preds               []int
	heap                float64
	chip                *chipCounts
}

// chipCounts are the chip backend's activity over the training region.
type chipCounts struct {
	synEvents, spikes, updates, learnOps, hostTx float64 // per sample
	cores                                        int
	energyMJ, fps                                float64
	synEventsTotal                               int64
}

func trainChip(r *run) map[string]metric {
	opts := trainOptions(r.nproc)
	firstPreds := map[int][]int{}
	perOrder := map[int]map[string]float64{}
	var tracedReps []trainRep
	r.repeat(2, func(i int) {
		tk := r.repTrack(i)
		traced := tk != nil
		k := r.orderOf(i)
		var tr *trainRep
		if traced {
			tr = trainTraced(r, opts, k, tk)
		} else {
			tr = trainPlain(r, opts, k)
		}
		if tr == nil {
			return
		}
		vals := map[string]float64{
			"setup_s":                float64(tr.setup) / 1e9,
			"heap_mb":                tr.heap,
			"ms_per_op":              float64(tr.train) / 1e6 / float64(tr.trained),
			"train_samples_per_s":    float64(tr.trained) / tr.train.Seconds(),
			"classify_samples_per_s": float64(tr.classified) / tr.eval.Seconds(),
			"order":                  float64(k),
		}
		if tr.accuracy < minAccuracy {
			r.problem("test accuracy %.4f is below %.2f: training did not learn", tr.accuracy, minAccuracy)
		}
		// Every figure of an order repeats exactly in every repetition
		// and every run with the same seed and binary.
		c := tr.chip
		exact := map[string]float64{
			"accuracy":                             tr.accuracy,
			"loihi.synaptic_events_per_sample":     c.synEvents,
			"loihi.spikes_per_sample":              c.spikes,
			"loihi.compartment_updates_per_sample": c.updates,
			"loihi.learning_ops_per_sample":        c.learnOps,
			"chipnet.host_transactions_per_sample": c.hostTx,
			"loihi.cores_used":                     float64(c.cores),
			"sim_energy_mj_per_sample":             c.energyMJ,
			"sim_train_fps":                        c.fps,
		}
		for name, v := range exact {
			r.pin(fmt.Sprintf("order%d.%s", k, name), v)
		}
		perOrder[k] = exact
		if traced {
			vals["traced"] = 1
			tracedReps = append(tracedReps, *tr)
		}
		if first, ok := firstPreds[k]; !ok {
			firstPreds[k] = tr.preds
		} else if !slices.Equal(first, tr.preds) {
			r.problem("repetition %d (traced %v) predicts the test split differently from an earlier one with order %d", i, traced, k)
		}
		r.reps = append(r.reps, vals)
	})

	if !r.traced {
		overOrders := func(name string) float64 {
			vs := make([]float64, 0, orders)
			for _, exact := range perOrder {
				vs = append(vs, exact[name])
			}
			return quantile(vs, 0.5)
		}
		return map[string]metric{
			"setup_s":                  {r.median("setup_s", false), "s"},
			"heap_mb":                  {r.median("heap_mb", false), "MiB"},
			"ms_per_op":                {r.median("ms_per_op", false), "ms"},
			"train_samples_per_s":      {r.median("train_samples_per_s", false), "samples/s"},
			"classify_samples_per_s":   {r.median("classify_samples_per_s", false), "samples/s"},
			"accuracy":                 {overOrders("accuracy"), "fraction"},
			"sim_energy_mj_per_sample": {overOrders("sim_energy_mj_per_sample"), "mJ"},
			"sim_train_fps":            {overOrders("sim_train_fps"), "samples/s"},
		}
	}
	return trainLayers(r, tracedReps)
}

// trainLayers reduces the traced repetitions to per-layer metrics:
// medians across repetitions of each repetition's p50 call time.
func trainLayers(r *run, reps []trainRep) map[string]metric {
	if len(reps) == 0 {
		r.problem("no traced repetition completed")
		return map[string]metric{}
	}
	med := func(f func(tr trainRep) float64) float64 {
		vs := make([]float64, len(reps))
		for i, tr := range reps {
			vs[i] = f(tr)
		}
		return quantile(vs, 0.5)
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	p50us := func(ds []time.Duration) float64 { return durQuantile(ds, 0.5, time.Microsecond) }
	out := map[string]metric{
		"core.realize_s":         {med(func(tr trainRep) float64 { return sec(tr.realize) }), "s"},
		"core.pretrain_s":        {med(func(tr trainRep) float64 { return sec(tr.pretrain) }), "s"},
		"core.build_backend_s":   {med(func(tr trainRep) float64 { return sec(tr.backend) }), "s"},
		"engine.replica_build_s": {med(func(tr trainRep) float64 { return sec(tr.replicas) }), "s"},
		"runner.program_us":      {med(func(tr trainRep) float64 { return p50us(tr.program) }), "us"},
		"runner.phases_us":       {med(func(tr trainRep) float64 { return p50us(tr.phases) }), "us"},
		"runner.apply_us":        {med(func(tr trainRep) float64 { return p50us(tr.apply) }), "us"},
		"runner.predict_us":      {med(func(tr trainRep) float64 { return p50us(tr.predict) }), "us"},
		// The share of pool time spent predicting: n sequential predict
		// times over width × the parallel pass's wall time.
		"engine.pool_efficiency": {med(func(tr trainRep) float64 {
			perPass := tr.eval.Seconds() / evalPasses
			return float64(len(tr.preds)) * durQuantile(tr.predict, 0.5, time.Second) / (float64(r.nproc) * perPass)
		}), "fraction"},
		"trace.overhead_pct": {r.overheadPct("ms_per_op", false), "%"},
		"loihi.host_ns_per_synaptic_event": {med(func(tr trainRep) float64 {
			var total time.Duration
			for _, d := range tr.phases {
				total += d
			}
			return float64(total) / float64(tr.chip.synEventsTotal)
		}), "ns"},
	}
	c := reps[0].chip
	out["loihi.synaptic_events_per_sample"] = metric{c.synEvents, "count"}
	out["loihi.spikes_per_sample"] = metric{c.spikes, "count"}
	out["loihi.compartment_updates_per_sample"] = metric{c.updates, "count"}
	out["loihi.learning_ops_per_sample"] = metric{c.learnOps, "count"}
	out["chipnet.host_transactions_per_sample"] = metric{c.hostTx, "count"}
	out["loihi.cores_used"] = metric{float64(c.cores), "count"}
	return out
}

// warmReplicas runs the model's first parallel predict on one sample
// per worker, which builds the pool's replicas outside the timed
// region.
func warmReplicas(r *run, m *core.Model) bool {
	test := m.TestFeatures()
	n := r.nproc
	if n > len(test) {
		n = len(test)
	}
	r.attempted++
	if _, err := m.Group().Predict(test[:n]); err != nil {
		r.failed++
		r.problem("building replicas: %v", err)
		return false
	}
	return true
}

// trainPlain is one untraced repetition: core.Build, online training
// through Model.TrainSample, classification through Model.Evaluate.
func trainPlain(r *run, opts core.Options, k int) *trainRep {
	tr := &trainRep{}
	t0 := time.Now()
	r.attempted++
	m, err := core.Build(opts)
	if err != nil {
		r.failed++
		r.problem("core.Build: %v", err)
		return nil
	}
	defer m.Close()
	if !warmReplicas(r, m) {
		return nil
	}
	tr.setup = time.Since(t0)

	samples := m.TrainFeatures()
	order := sampleOrder(r.seed, k, len(samples))
	m.ChipNetwork().ResetCounters()
	// Collect set-up garbage now, so no timed region pays for it.
	runtime.GC()
	t0 = time.Now()
	for _, idx := range order {
		s := samples[idx]
		m.TrainSample(s.X, s.Y)
	}
	tr.train = time.Since(t0)
	r.attempted += int64(len(order))
	tr.trained = len(order)
	tr.chip = readChip(m, len(order))

	first := evaluate(r, m, evalPasses, nil, tr)
	tr.preds = checkedPredictions(r, m, first)
	tr.heap = heapMB()
	runtime.KeepAlive(m)
	return tr
}

// trainTraced is one traced repetition: the build's stages, every
// sample's ProgramSample → RunPhases(true) → ApplyUpdate(nil) and
// every sequential predict are spans on tk.
func trainTraced(r *run, opts core.Options, k int, tk *trace.Track) *trainRep {
	tr := &trainRep{}
	m, st := buildStaged(r, opts, tk)
	if m == nil {
		return nil
	}
	defer m.Close()
	tr.stages = st
	tr.setup = st.realize + st.pretrain + st.backend + st.replicas

	samples := m.TrainFeatures()
	order := sampleOrder(r.seed, k, len(samples))
	ordered := make([]metrics.Sample, len(order))
	for i, idx := range order {
		ordered[i] = samples[idx]
	}
	run := m.Runner()
	m.ChipNetwork().ResetCounters()
	runtime.GC()
	t0 := time.Now()
	tr.steps = trainSteps(tk, run, ordered)
	tr.train = time.Since(t0)
	r.attempted += int64(len(order))
	tr.trained = len(order)
	tr.chip = readChip(m, len(order))

	first := evaluate(r, m, evalPasses, tk, tr)

	test := m.TestFeatures()
	tr.preds, tr.predict = predictSteps(tk, run, test)
	if !confusionMatches(first, test, tr.preds) {
		r.problem("traced sequential predictions disagree with Model.Evaluate")
	}
	r.attempted += int64(len(test))
	tr.heap = heapMB()
	runtime.KeepAlive(m)
	return tr
}

// stages are the parts of one staged model build.
type stages struct {
	realize, pretrain, backend, replicas time.Duration
}

// buildStaged is core.Build split into spans on tk:
// core.RealizeDataset → core.PretrainFrom → core.BuildFrom, then the
// first parallel predict that builds the pool's replicas. It returns a
// nil model, and records the problem, if the build fails.
func buildStaged(r *run, opts core.Options, tk *trace.Track) (*core.Model, stages) {
	var st stages
	var ds *dataset.Dataset
	var realized *core.Realized
	var m *core.Model
	var err error
	r.attempted++
	st.realize = span(tk, "core.RealizeDataset", func() { ds = core.RealizeDataset(opts) })
	st.pretrain = span(tk, "core.PretrainFrom", func() { realized = core.PretrainFrom(ds, opts) })
	st.backend = span(tk, "core.BuildFrom", func() { m, err = core.BuildFrom(realized, opts) })
	if err != nil {
		r.failed++
		r.problem("core.BuildFrom: %v", err)
		return nil, st
	}
	ok := true
	st.replicas = span(tk, "engine.Group.Predict(warm)", func() { ok = warmReplicas(r, m) })
	if !ok {
		m.Close()
		return nil, st
	}
	return m, st
}

// steps are the per-sample times of online training through a runner.
type steps struct {
	program, phases, apply []time.Duration
}

// trainSteps trains run online on samples, in order, as
// ProgramSample → RunPhases(true) → ApplyUpdate(nil), each a span on tk.
func trainSteps(tk *trace.Track, run engine.Runner, samples []metrics.Sample) steps {
	st := steps{
		program: make([]time.Duration, 0, len(samples)),
		phases:  make([]time.Duration, 0, len(samples)),
		apply:   make([]time.Duration, 0, len(samples)),
	}
	for _, s := range samples {
		st.program = append(st.program, span(tk, "ProgramSample", func() { run.ProgramSample(s.X, s.Y) }))
		st.phases = append(st.phases, span(tk, "RunPhases", func() { run.RunPhases(true) }))
		st.apply = append(st.apply, span(tk, "ApplyUpdate", func() { run.ApplyUpdate(nil) }))
	}
	return st
}

// predictSteps predicts samples sequentially on run, each a span on tk,
// and returns the predictions and their times.
func predictSteps(tk *trace.Track, run engine.Runner, samples []metrics.Sample) ([]int, []time.Duration) {
	preds := make([]int, len(samples))
	times := make([]time.Duration, len(samples))
	for i, s := range samples {
		times[i] = span(tk, "Predict", func() { preds[i] = run.Predict(s.X) })
	}
	return preds, times
}

// evaluate classifies the test split passes times through
// Model.Evaluate, checks every pass returns the same confusion matrix,
// and records the time spent, the samples classified and the accuracy
// in tr.
func evaluate(r *run, m *core.Model, passes int, tk *trace.Track, tr *trainRep) *metrics.Confusion {
	var first *metrics.Confusion
	for p := 0; p < passes; p++ {
		var cm *metrics.Confusion
		tr.eval += span(tk, "core.Model.Evaluate", func() { cm = m.Evaluate() })
		tr.classified += cm.Total()
		r.attempted += int64(cm.Total())
		if first == nil {
			first = cm
		} else if !slices.Equal(first.Cells, cm.Cells) {
			r.problem("evaluation pass %d differs from pass 0", p)
		}
	}
	tr.accuracy = first.Accuracy()
	return first
}

// poolEfficiency classifies the test split once through Model.Evaluate
// and returns the share of pool time spent predicting: n sequential
// predict times (p50 of predict) over width × the parallel pass's wall
// time.
func poolEfficiency(r *run, m *core.Model, tk *trace.Track, predict []time.Duration) float64 {
	var cm *metrics.Confusion
	wall := span(tk, "core.Model.Evaluate", func() { cm = m.Evaluate() })
	r.attempted += int64(cm.Total())
	return float64(cm.Total()) * durQuantile(predict, 0.5, time.Second) / (float64(r.nproc) * wall.Seconds())
}

// readChip reduces the chip network's counters over the training
// region to per-sample counts and the modelled Table II figures.
func readChip(m *core.Model, n int) *chipCounts {
	net := m.ChipNetwork()
	c := net.Counters()
	rep := energy.DefaultLoihi().Analyze(c, net.CoresUsed(), net.MaxPlasticNeuronsPerCore(), n, true)
	per := func(v int64) float64 { return float64(v) / float64(n) }
	return &chipCounts{
		synEvents:      per(c.SynapticEvents),
		spikes:         per(c.Spikes),
		updates:        per(c.CompartmentUpdates),
		learnOps:       per(c.LearningOps),
		hostTx:         per(c.HostTransactions),
		cores:          net.CoresUsed(),
		energyMJ:       rep.EnergyPerSampleJ * 1e3,
		fps:            rep.FPS,
		synEventsTotal: c.SynapticEvents,
	}
}

// checkedPredictions classifies the test split once more through the
// engine group, outside the timed region, and checks the predictions
// against the timed pass's confusion matrix.
func checkedPredictions(r *run, m *core.Model, cm *metrics.Confusion) []int {
	test := m.TestFeatures()
	r.attempted++
	preds, err := m.Group().Predict(test)
	if err != nil {
		r.failed++
		r.problem("engine.Group.Predict: %v", err)
		return nil
	}
	if !confusionMatches(cm, test, preds) {
		r.problem("engine.Group.Predict disagrees with Model.Evaluate")
	}
	return preds
}

// confusionMatches reports whether preds over samples rebuild cm, and
// every prediction names a class.
func confusionMatches(cm *metrics.Confusion, samples []metrics.Sample, preds []int) bool {
	if len(preds) != len(samples) {
		return false
	}
	re := metrics.NewConfusion(cm.N)
	for i, s := range samples {
		if preds[i] < 0 || preds[i] >= cm.N {
			return false
		}
		re.Observe(s.Y, preds[i])
	}
	return slices.Equal(re.Cells, cm.Cells)
}
