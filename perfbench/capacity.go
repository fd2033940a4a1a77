package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"emstdp/internal/core"
)

// capacityPhase is how long each closed-loop phase of a serve-capacity
// repetition loads the tenant.
const capacityPhase = 5 * time.Second

// serveCapacity measures the serve-mixed tenant's closed-loop capacity
// on this host, the figures serve-mixed's open-loop rates are derived
// from (README.md). It is not a benchmark workload: run it by hand as
//
//	bash perfbench/run.sh --workload serve-capacity --seed 1 --seconds 60 --trace 0
//
// Each repetition creates the tenant and loads it in three closed-loop
// phases from nproc connections, each connection sending its next
// request as soon as the previous one is answered: classify only, train
// only, and serve-mixed's 5:1 read/write mix. Then it deletes the
// tenant. Classify capacity is answered requests per second; train
// capacity is samples the trainer applied per second while admission
// stayed saturated; mix capacity is answered requests per second.
func serveCapacity(r *run) map[string]metric {
	opts := serveCoreOptions(r.seed, r.nproc)
	realized := core.PretrainFrom(core.RealizeDataset(opts), opts)
	bodies := [2][][]byte{}
	bodies[0], bodies[1] = encodeBodies(r, realized)
	dim := len(realized.TestFeat[0].X)

	h := newHarness(r.nproc)
	defer h.close()

	r.repeat(2, func(i int) {
		name := fmt.Sprintf("capacity%d", i)
		info, ok := h.create(r, name, dim)
		if !ok {
			return
		}
		base := h.url + "/v1/" + name
		load := func(trainEvery int) (loopResult, map[string]int64, bool) {
			res := closedLoop(r, h.client, base, bodies, trainEvery, info.Classes)
			reportMalformed(r, name, res.bad)
			ctr, ok := h.counters(r, name)
			return res, ctr, ok
		}
		cls, c0, ok0 := load(0)
		tr, c1, ok1 := load(1)
		mix, _, ok2 := load(int(classifyRate/trainRate) + 1)
		if !ok0 || !ok1 || !ok2 || !h.remove(r, name, tr.accepted+mix.accepted) {
			return
		}
		r.reps = append(r.reps, map[string]float64{
			"classify_capacity_per_s": float64(cls.answered) / capacityPhase.Seconds(),
			"classify_p50_ms":         durQuantile(cls.latency, 0.5, time.Millisecond),
			"batch_size_mean":         float64(c0["classify.samples"]) / float64(c0["classify.batches"]),
			"train_capacity_per_s":    float64(c1["train.applied"]-c0["train.applied"]) / capacityPhase.Seconds(),
			"mix_capacity_per_s":      float64(mix.answered) / capacityPhase.Seconds(),
		})
	})
	return map[string]metric{
		"classify_capacity_per_s": {r.median("classify_capacity_per_s", false), "1/s"},
		"classify_p50_ms":         {r.median("classify_p50_ms", false), "ms"},
		"batch_size_mean":         {r.median("batch_size_mean", false), "samples"},
		"train_capacity_per_s":    {r.median("train_capacity_per_s", false), "1/s"},
		"mix_capacity_per_s":      {r.median("mix_capacity_per_s", false), "1/s"},
	}
}

// loopResult is what one closed-loop phase observed.
type loopResult struct {
	answered          int64
	latency           []time.Duration // of the answered classify requests
	refused, accepted int64
	bad               []string
}

// closedLoop loads the tenant at base back to back from nproc
// connections for capacityPhase. Request k is a train request when
// trainEvery > 0 and k%trainEvery == trainEvery-1, else a classify
// request; bodies holds the classify bodies, then the train bodies. A
// refused request (429 while the training stream is gated) is retried
// after a millisecond's pause.
func closedLoop(r *run, client *http.Client, base string, bodies [2][][]byte, trainEvery, classes int) loopResult {
	var mu sync.Mutex
	var out loopResult
	var wg sync.WaitGroup
	deadline := time.Now().Add(capacityPhase)
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine loopResult
			for k := c; time.Now().Before(deadline); k += r.nproc {
				train := trainEvery > 0 && k%trainEvery == trainEvery-1
				url, bs := base+"/classify", bodies[0]
				if train {
					url, bs = base+"/train", bodies[1]
				}
				t0 := time.Now()
				status, body, err := call(client, http.MethodPost, url, bs[k%len(bs)])
				ok, accepted, bad := checkResponse(train, classes, status, body, err)
				mine.accepted += accepted
				switch {
				case ok:
					mine.answered++
					if !train {
						mine.latency = append(mine.latency, time.Since(t0))
					}
				case bad != "":
					mine.bad = append(mine.bad, bad)
				default:
					mine.refused++
					time.Sleep(time.Millisecond)
				}
			}
			mu.Lock()
			out.answered += mine.answered
			out.latency = append(out.latency, mine.latency...)
			out.refused += mine.refused
			out.accepted += mine.accepted
			out.bad = append(out.bad, mine.bad...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	n := out.answered + out.refused + int64(len(out.bad))
	r.attempted += n
	r.failed += n - out.answered
	return out
}
