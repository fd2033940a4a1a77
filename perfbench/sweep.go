package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/experiments"
	"emstdp/internal/metrics"
	"emstdp/internal/orchestrator"
	"emstdp/internal/trace"
)

// sweepScale is the cold orchestrated Fig-3 grid: FA/DFA × the paper's
// six packings × {1, 4} dies, range partition on a mesh, pool width
// nproc, and a fresh memory-only stage cache and counter registry.
func sweepScale(nproc int) experiments.Scale {
	sc := experiments.QuickScale()
	sc.Chips = []int{1, 4}
	sc.Partition = "range"
	sc.Topology = "mesh"
	sc.Orchestrate = true
	sc.Workers = nproc
	sc.Cache = orchestrator.NewCache("")
	sc.Counters = metrics.NewCounters()
	return sc
}

// sweepPoints is the grid's size: 2 modes × 6 packings × 2 die counts.
const sweepPoints = 2 * 6 * 2

// sweepGrids is the number of grids one repetition runs back to back,
// grid k at seed sweepGrids × seed + k. The model seed moves a grid's
// work: inter-die spikes ranged 18.5M-23.5M across eleven seeds, and a
// repetition of several seeds' grids averages that out.
const sweepGrids = 3

// sweepCounts are a grid's counts that must repeat exactly.
type sweepCounts struct {
	issued, misses, stalls, width    int64
	meshSpikes, meshHops, meshStalls int64
	digest                           float64
}

// sweepBuilds is how many times a run deploys the sweep's set-up model.
const sweepBuilds = 3

// sweepTrainSamples is how many training samples a traced run drives
// through the set-up model's runner.
const sweepTrainSamples = 100

// sweepSetupOptions is the sweep's set-up: the train-chip Table I cell
// at the workload seed, deployed on the grid's four dies with its
// partition and topology.
func sweepSetupOptions(seed uint64, nproc int) core.Options {
	opts := trainOptions(nproc)
	opts.Seed = seed
	opts.Chips, opts.PartitionStrategy, opts.Topology = 4, "range", "mesh"
	return opts
}

func sweepFig3(r *run) map[string]metric {
	opts := sweepSetupOptions(r.seed, r.nproc)
	var setups []float64
	layers := map[string]metric{}
	for i := 0; i < sweepBuilds; i++ {
		if tk := r.repTrack(i); tk != nil {
			layers = sweepLayers(r, opts, tk)
			continue
		}
		// Collect the previous build's garbage, so no build pays for it.
		runtime.GC()
		t0 := time.Now()
		r.attempted++
		m, err := core.Build(opts)
		if err != nil {
			r.failed++
			r.problem("core.Build: %v", err)
			continue
		}
		if warmReplicas(r, m) {
			setups = append(setups, time.Since(t0).Seconds())
		}
		m.Close()
	}

	var counts []sweepCounts
	r.repeat(2, func(i int) {
		tk := r.repTrack(i)
		var wall time.Duration
		var cells int
		var total sweepCounts
		var sc experiments.Scale
		for k := 0; k < sweepGrids; k++ {
			sc = sweepScale(r.nproc)
			var points []experiments.Fig3Point
			var err error
			wall += span(tk, "experiments.Fig3", func() { points, err = experiments.Fig3(sc, uint64(sweepGrids)*r.seed+uint64(k)) })
			r.attempted += sweepPoints
			if err != nil {
				r.failed += sweepPoints
				r.problem("experiments.Fig3: %v", err)
				return
			}
			cells += len(points)
			c := checkSweep(r, sc, points)
			for name, v := range map[string]int64{
				"orchestrator.issued":       c.issued,
				"orchestrator.cache_misses": c.misses,
				"orchestrator.stalls":       c.stalls,
				"orchestrator.width":        c.width,
				"loihi.mesh_spikes":         c.meshSpikes,
				"loihi.mesh_hops":           c.meshHops,
				"loihi.mesh_stalls":         c.meshStalls,
			} {
				r.pin(fmt.Sprintf("grid%d.%s", k, name), float64(v))
			}
			r.pin(fmt.Sprintf("grid%d.digest", k), c.digest)
			total.issued += c.issued
			total.misses += c.misses
			total.stalls += c.stalls
			total.width = max(total.width, c.width)
			total.meshSpikes += c.meshSpikes
			total.meshHops += c.meshHops
			total.meshStalls += c.meshStalls
		}
		vals := map[string]float64{
			"ms_per_op":   float64(wall) / 1e6 / float64(cells),
			"cells_per_s": float64(cells) / wall.Seconds(),
			"heap_mb":     heapMB(),
		}
		runtime.KeepAlive(sc.Cache)
		if tk != nil {
			vals["traced"] = 1
			counts = append(counts, total)
		}
		r.reps = append(r.reps, vals)
	})
	if !r.traced {
		return map[string]metric{
			"setup_s":     {quantile(setups, 0.5), "s"},
			"ms_per_op":   {r.median("ms_per_op", false), "ms"},
			"cells_per_s": {r.median("cells_per_s", false), "cells/s"},
			"heap_mb":     {r.median("heap_mb", false), "MiB"},
		}
	}
	if len(counts) == 0 {
		r.problem("no traced repetition completed")
		return map[string]metric{}
	}
	// Counts over one repetition's grids; width is the widest grid's.
	c := counts[0]
	for name, m := range map[string]metric{
		"orchestrator.issued":       {float64(c.issued), "count"},
		"orchestrator.cache_misses": {float64(c.misses), "count"},
		"orchestrator.stalls":       {float64(c.stalls), "count"},
		"orchestrator.width":        {float64(c.width), "count"},
		"loihi.mesh_spikes":         {float64(c.meshSpikes), "count"},
		"loihi.mesh_hops":           {float64(c.meshHops), "count"},
		"loihi.mesh_stalls":         {float64(c.meshStalls), "count"},
		"trace.overhead_pct":        {r.overheadPct("ms_per_op", false), "%"},
	} {
		layers[name] = m
	}
	return layers
}

// sweepLayers deploys the set-up model in traced stages, drives the
// first sweepTrainSamples training samples through its runner on the
// four dies, predicts its test split sequentially and once through
// Model.Evaluate, and returns the core, engine, runner and chip figures.
func sweepLayers(r *run, opts core.Options, tk *trace.Track) map[string]metric {
	m, st := buildStaged(r, opts, tk)
	if m == nil {
		return map[string]metric{}
	}
	defer m.Close()

	run := m.Runner()
	samples := m.TrainFeatures()[:sweepTrainSamples]
	m.ChipNetwork().ResetCounters()
	tr := trainSteps(tk, run, samples)
	r.attempted += int64(len(samples))
	c := readChip(m, len(samples))
	test := m.TestFeatures()
	_, predict := predictSteps(tk, run, test)
	r.attempted += int64(len(test))
	efficiency := poolEfficiency(r, m, tk, predict)

	out := map[string]metric{
		"loihi.synaptic_events_per_sample":     {c.synEvents, "count"},
		"loihi.spikes_per_sample":              {c.spikes, "count"},
		"loihi.compartment_updates_per_sample": {c.updates, "count"},
		"loihi.learning_ops_per_sample":        {c.learnOps, "count"},
		"chipnet.host_transactions_per_sample": {c.hostTx, "count"},
		"loihi.cores_used":                     {float64(c.cores), "count"},
	}
	for name, v := range out {
		r.pin("setup."+name, v.Value)
	}
	out["core.realize_s"] = metric{st.realize.Seconds(), "s"}
	out["core.pretrain_s"] = metric{st.pretrain.Seconds(), "s"}
	out["core.build_backend_s"] = metric{st.backend.Seconds(), "s"}
	out["engine.replica_build_s"] = metric{st.replicas.Seconds(), "s"}
	out["engine.pool_efficiency"] = metric{efficiency, "fraction"}
	out["runner.program_us"] = metric{durQuantile(tr.program, 0.5, time.Microsecond), "us"}
	out["runner.phases_us"] = metric{durQuantile(tr.phases, 0.5, time.Microsecond), "us"}
	out["runner.apply_us"] = metric{durQuantile(tr.apply, 0.5, time.Microsecond), "us"}
	out["runner.predict_us"] = metric{durQuantile(predict, 0.5, time.Microsecond), "us"}
	return out
}

// checkSweep checks the grid's points and reads its counters: every
// point is a positive-energy deployment, every 4-die point carries
// inter-die traffic, and every 1-die point none.
func checkSweep(r *run, sc experiments.Scale, points []experiments.Fig3Point) sweepCounts {
	if len(points) != sweepPoints {
		r.problem("Fig3 returned %d points, want %d", len(points), sweepPoints)
	}
	var c sweepCounts
	h := sha256.New()
	for i, p := range points {
		if !(p.EnergyPerSample > 0) || !(p.TimeFor10k > 0) || p.Cores <= 0 {
			r.problem("Fig3 point %d is not a positive-energy deployment: %+v", i, p)
		}
		switch {
		case p.Chips == 4 && p.MeshSpikes <= 0:
			r.problem("4-die Fig3 point %d carries no inter-die spikes", i)
		case p.Chips == 1 && (p.MeshSpikes != 0 || p.MeshHops != 0):
			r.problem("1-die Fig3 point %d carries inter-die traffic", i)
		}
		if p.Chips == 4 {
			c.meshSpikes += p.MeshSpikes
			c.meshHops += p.MeshHops
			c.meshStalls += p.MeshStalls
		}
		for _, v := range []int64{int64(p.Mode), int64(p.Chips), int64(p.NeuronsPerCore), int64(p.Cores), p.MeshSpikes, p.MeshHops, p.MeshStalls} {
			binary.Write(h, binary.LittleEndian, v)
		}
		for _, v := range []float64{p.TimeFor10k, p.PowerWatts, p.EnergyPerSample, p.MeshEnergyPerSample} {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
		h.Write([]byte(p.Partition + "/" + p.Topology))
	}
	// The first 48 bits of the digest, exact as a float64.
	c.digest = float64(binary.BigEndian.Uint64(h.Sum(nil)[:8]) >> 16)
	c.issued = sc.Counters.Get("orchestrator.issued")
	c.misses = sc.Counters.Get("orchestrator.cache.misses")
	c.stalls = sc.Counters.Get("orchestrator.stalls")
	c.width = sc.Counters.Get("orchestrator.width")
	return c
}
