package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"emstdp/internal/core"
	"emstdp/internal/dataset"
	"emstdp/internal/metrics"
	"emstdp/internal/rng"
	"emstdp/internal/serve"
	"emstdp/internal/trace"
)

// The serve-mixed traffic: an open-loop Poisson mix of classify reads
// and train writes for serveLoad per repetition. The 5:1 read/write mix
// is an arbitrary choice. The total, 240 requests/s, is about 30% of the
// tenant's closed-loop capacity for that mix from nproc connections, as
// the serve-capacity calibration measured it on a 2-vCPU Xeon (700-810
// requests/s; README.md).
const (
	classifyRate = 200.0 // requests/s
	trainRate    = 40.0  // requests/s
	serveLoad    = 6 * time.Second
)

// serveTenant is the tenant created by PUT in every repetition: an FP
// MNIST model on a 1000/200 split with one pretraining epoch, so a
// create costs about a second, and a replica pool of width nproc.
func serveTenant(seed uint64, nproc int) serve.TenantOptions {
	return serve.TenantOptions{Seed: seed, Workers: nproc, TrainSamples: 1000, TestSamples: 200, PretrainEpochs: 1}
}

// serveCoreOptions mirrors serveTenant as core.Options, so the
// benchmark can realize the tenant's own feature vectors for request
// bodies.
func serveCoreOptions(seed uint64, nproc int) core.Options {
	t := serveTenant(seed, nproc)
	return core.Options{
		Dataset: dataset.MNIST, Backend: core.FP, Seed: t.Seed, Workers: t.Workers,
		TrainSamples: t.TrainSamples, TestSamples: t.TestSamples, PretrainEpochs: t.PretrainEpochs,
	}
}

// request is one scheduled arrival.
type request struct {
	due   time.Duration // offset from the start of the load phase
	train bool
	body  []byte
}

// outcome is what one request observed.
type outcome struct {
	latency, lag time.Duration
	ok           bool
	accepted     int64
	bad          string // a malformed 2xx answer
}

// schedule draws the seeded open-loop arrivals: two independent Poisson
// streams, merged in due order. Classify bodies carry one test feature
// vector; train bodies one training vector and its true label.
func schedule(seed uint64, classify, train [][]byte) []request {
	src := rng.New(seed ^ 0xbb67ae8584caa73b)
	draw := func(rate float64, bodies [][]byte, isTrain bool) []request {
		var out []request
		var t float64
		for {
			t += -math.Log(1-src.Float64()) / rate
			if t >= serveLoad.Seconds() {
				return out
			}
			out = append(out, request{
				due:   time.Duration(t * float64(time.Second)),
				train: isTrain,
				body:  bodies[src.Intn(len(bodies))],
			})
		}
	}
	c := draw(classifyRate, classify, false)
	t := draw(trainRate, train, true)
	merged := make([]request, 0, len(c)+len(t))
	for len(c) > 0 || len(t) > 0 {
		if len(t) == 0 || (len(c) > 0 && c[0].due <= t[0].due) {
			merged, c = append(merged, c[0]), c[1:]
		} else {
			merged, t = append(merged, t[0]), t[1:]
		}
	}
	return merged
}

// serveRep is what one repetition measured.
type serveRep struct {
	setup                time.Duration
	classify, train, lag []time.Duration
	counters             map[string]int64
	heap                 float64
}

func serveMixed(r *run) map[string]metric {
	tk := r.tk
	opts := serveCoreOptions(r.seed, r.nproc)
	var ds *dataset.Dataset
	var realized *core.Realized
	realize := span(tk, "core.RealizeDataset", func() { ds = core.RealizeDataset(opts) })
	pretrain := span(tk, "core.PretrainFrom", func() { realized = core.PretrainFrom(ds, opts) })
	classifyBodies, trainBodies := encodeBodies(r, realized)
	reqs := schedule(r.seed, classifyBodies, trainBodies)

	h := newHarness(r.nproc)
	defer h.close()

	var tracedReps []serveRep
	r.repeat(2, func(i int) {
		track := r.repTrack(i)
		sr := serveOnce(r, h, fmt.Sprintf("bench%d", i), len(realized.TestFeat[0].X), reqs, track)
		if sr == nil {
			return
		}
		cls := float64(sr.counters["classify.samples"])
		vals := map[string]float64{
			"setup_s":         sr.setup.Seconds(),
			"heap_mb":         sr.heap,
			"classify_p50_ms": durQuantile(sr.classify, 0.5, time.Millisecond),
			"classify_p99_ms": durQuantile(sr.classify, 0.99, time.Millisecond),
			"train_p50_ms":    durQuantile(sr.train, 0.5, time.Millisecond),
			"train_p99_ms":    durQuantile(sr.train, 0.99, time.Millisecond),
			"lag_p99_ms":      durQuantile(sr.lag, 0.99, time.Millisecond),
			"batch_size_mean": cls / float64(sr.counters["classify.batches"]),
			"coalesced_share": float64(sr.counters["classify.coalesced"]) / float64(sr.counters["classify.batches"]),
		}
		if track != nil {
			vals["traced"] = 1
			tracedReps = append(tracedReps, *sr)
		}
		r.reps = append(r.reps, vals)
	})

	if !r.traced {
		return map[string]metric{
			"setup_s":   {r.median("setup_s", false), "s"},
			"heap_mb":   {r.median("heap_mb", false), "MiB"},
			"ms_per_op": {r.median("classify_p50_ms", false), "ms"},
		}
	}
	if len(tracedReps) == 0 {
		r.problem("no traced repetition completed")
		return map[string]metric{}
	}

	// The tenant's model, staged: the same realization the PUT runs,
	// then the backend and its replicas, one online pass over its
	// training split as the tenant's trainer applies it, sequential
	// predicts on its test split and one parallel Evaluate.
	var m *core.Model
	var err error
	backend := span(tk, "core.BuildFrom", func() { m, err = core.BuildFrom(realized, opts) })
	if err != nil {
		r.problem("core.BuildFrom: %v", err)
		return map[string]metric{}
	}
	defer m.Close()
	ok := true
	replicas := span(tk, "engine.Group.Predict(warm)", func() { ok = warmReplicas(r, m) })
	if !ok {
		return map[string]metric{}
	}
	run := m.Runner()
	tr := trainSteps(tk, run, realized.TrainFeat)
	_, predict := predictSteps(tk, run, realized.TestFeat)
	efficiency := poolEfficiency(r, m, tk, predict)

	ctr := func(name string) float64 {
		vs := make([]float64, len(tracedReps))
		for i, sr := range tracedReps {
			vs[i] = float64(sr.counters[name])
		}
		return quantile(vs, 0.5)
	}
	return map[string]metric{
		"core.realize_s":             {realize.Seconds(), "s"},
		"core.pretrain_s":            {pretrain.Seconds(), "s"},
		"core.build_backend_s":       {backend.Seconds(), "s"},
		"engine.replica_build_s":     {replicas.Seconds(), "s"},
		"engine.pool_efficiency":     {efficiency, "fraction"},
		"runner.program_us":          {durQuantile(tr.program, 0.5, time.Microsecond), "us"},
		"runner.phases_us":           {durQuantile(tr.phases, 0.5, time.Microsecond), "us"},
		"runner.apply_us":            {durQuantile(tr.apply, 0.5, time.Microsecond), "us"},
		"runner.predict_us":          {durQuantile(predict, 0.5, time.Microsecond), "us"},
		"serve.classify_p99_ms":      {r.median("classify_p99_ms", true), "ms"},
		"serve.train_p50_ms":         {r.median("train_p50_ms", true), "ms"},
		"serve.train_p99_ms":         {r.median("train_p99_ms", true), "ms"},
		"serve.generator_lag_p99_ms": {r.median("lag_p99_ms", true), "ms"},
		"serve.batch_size_mean":      {r.median("batch_size_mean", true), "samples"},
		"serve.coalesced_share":      {r.median("coalesced_share", true), "fraction"},
		"serve.predict_batch_us":     {ctr("classify.latency_ns.p50") / 1e3, "us"},
		"serve.trainer_sample_us":    {ctr("train.latency_ns.p50") / 1e3, "us"},
		"serve.versions_cut":         {ctr("versions.cut"), "count"},
		"stream.stalls":              {ctr("train.channel.stalls"), "count"},
		"stream.train_rejected":      {ctr("train.rejected"), "count"},
		"trace.overhead_pct":         {r.overheadPct("classify_p50_ms", false), "%"},
	}
}

// serveOnce is one repetition: create the tenant, drive the open-loop
// load through at most nproc connections, read the tenant's counters
// and delete it, checking every response.
func serveOnce(r *run, h *harness, name string, dim int, reqs []request, tk *trace.Track) *serveRep {
	sr := &serveRep{}
	var info serve.TenantInfo
	var ok bool
	sr.setup = span(tk, "PUT tenant", func() { info, ok = h.create(r, name, dim) })
	if !ok {
		return nil
	}

	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.nproc; c++ {
		var conn *trace.Track
		if tk != nil {
			conn = r.tracer.Track(fmt.Sprintf("conn%d", c), 1<<14)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rq := reqs[i]
				due := start.Add(rq.due)
				time.Sleep(time.Until(due))
				outs[i] = send(h.client, h.url+"/v1/"+name, info.Classes, rq, due, conn)
			}
		}()
	}
	wg.Wait()

	var accepted int64
	var bad []string
	for i, o := range outs {
		r.attempted++
		if !o.ok {
			r.failed++
		}
		if o.bad != "" {
			bad = append(bad, o.bad)
		}
		if reqs[i].train {
			sr.train = append(sr.train, o.latency)
			accepted += o.accepted
		} else {
			sr.classify = append(sr.classify, o.latency)
		}
		sr.lag = append(sr.lag, o.lag)
	}
	reportMalformed(r, name, bad)

	var counters map[string]int64
	span(tk, "GET counters", func() { counters, ok = h.counters(r, name) })
	if !ok {
		return nil
	}
	sr.counters = counters
	sr.heap = heapMB()

	span(tk, "DELETE tenant", func() { ok = h.remove(r, name, accepted) })
	if !ok {
		return nil
	}
	return sr
}

// reportMalformed fails the run when any 2xx response was malformed.
func reportMalformed(r *run, name string, bad []string) {
	if len(bad) > 0 {
		r.problem("%s: %d malformed 2xx responses, the first: %s", name, len(bad), bad[0])
	}
}

// harness is the in-process server, behind httptest, and the client
// that loads it through at most nproc connections.
type harness struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	url    string
}

func newHarness(nproc int) *harness {
	srv := serve.New()
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}}
	return &harness{srv: srv, ts: ts, client: client, url: ts.URL}
}

func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
	h.srv.Close()
}

// create PUTs the serve-mixed tenant as name and checks it starts at
// version 1 with the realized features' input width.
func (h *harness) create(r *run, name string, dim int) (serve.TenantInfo, bool) {
	var info serve.TenantInfo
	opts, err := json.Marshal(serveTenant(r.seed, r.nproc))
	if err != nil {
		r.problem("encoding tenant options: %v", err)
		return info, false
	}
	r.attempted++
	status, body, err := call(h.client, http.MethodPut, h.url+"/v1/tenants/"+name, opts)
	if err != nil || status != http.StatusCreated || json.Unmarshal(body, &info) != nil {
		r.failed++
		r.problem("PUT %s: status %d, %v", name, status, err)
		return info, false
	}
	if info.InputDim != dim || info.Version != 1 {
		r.problem("PUT %s created input_dim %d at version %d; the realized features have %d", name, info.InputDim, info.Version, dim)
	}
	return info, true
}

// counters reads the tenant's counter registry.
func (h *harness) counters(r *run, name string) (map[string]int64, bool) {
	r.attempted++
	status, body, err := call(h.client, http.MethodGet, h.url+"/v1/"+name+"/counters", nil)
	var ctr struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &ctr) != nil {
		r.failed++
		r.problem("GET %s counters: status %d, %v", name, status, err)
		return nil, false
	}
	return ctr.Counters, true
}

// remove DELETEs the tenant, which drains its admitted samples, and
// checks it trained exactly the accepted ones, one version each.
func (h *harness) remove(r *run, name string, accepted int64) bool {
	r.attempted++
	status, body, err := call(h.client, http.MethodDelete, h.url+"/v1/tenants/"+name, nil)
	var del struct {
		Trained      int64 `json:"trained"`
		FinalVersion int64 `json:"final_version"`
	}
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &del) != nil {
		r.failed++
		r.problem("DELETE %s: status %d, %v", name, status, err)
		return false
	}
	if del.Trained != accepted || del.FinalVersion != 1+accepted {
		r.problem("DELETE %s reports trained %d, final_version %d; %d samples were accepted", name, del.Trained, del.FinalVersion, accepted)
	}
	return true
}

// encodeBodies encodes the realized test split as classify bodies and
// the training split, with true labels, as train bodies.
func encodeBodies(r *run, realized *core.Realized) (classify, train [][]byte) {
	encode := func(samples []metrics.Sample, labels bool) [][]byte {
		out := make([][]byte, len(samples))
		for i, s := range samples {
			body := map[string]any{"x": s.X}
			if labels {
				body["y"] = s.Y
			}
			b, err := json.Marshal(body)
			if err != nil {
				r.problem("encoding request body: %v", err)
			}
			out[i] = b
		}
		return out
	}
	return encode(realized.TestFeat, false), encode(realized.TrainFeat, true)
}

// send issues one scheduled request and times it from its due time.
func send(client *http.Client, base string, classes int, rq request, due time.Time, tk *trace.Track) outcome {
	o := outcome{lag: time.Since(due)}
	url, name := base+"/classify", "POST classify"
	if rq.train {
		url, name = base+"/train", "POST train"
	}
	var status int
	var body []byte
	var err error
	span(tk, name, func() { status, body, err = call(client, http.MethodPost, url, rq.body) })
	o.latency = time.Since(due)
	o.ok, o.accepted, o.bad = checkResponse(rq.train, classes, status, body, err)
	if !o.ok {
		// A failed or refused request misses any latency limit.
		o.latency = time.Duration(math.MaxInt64)
	}
	return o
}

// checkResponse sorts a response into success, refusal or a wrong
// answer. It succeeds when a train request got 202 with its one sample
// admitted, or a classify request got 200 with one in-range prediction
// from a published version. A transport error or a non-2xx status is a
// refusal (not ok, bad empty); a 429 may still have admitted a prefix,
// counted in accepted. Any other 2xx is a wrong answer: bad describes
// it, and the caller fails the run.
func checkResponse(train bool, classes, status int, body []byte, err error) (ok bool, accepted int64, bad string) {
	if err != nil {
		return false, 0, ""
	}
	is2xx := status/100 == 2
	if train {
		var resp struct {
			Accepted *int64 `json:"accepted"`
		}
		parsed := json.Unmarshal(body, &resp) == nil && resp.Accepted != nil
		if parsed {
			accepted = *resp.Accepted
		}
		if !is2xx {
			return false, accepted, ""
		}
		if status != http.StatusAccepted || !parsed || accepted != 1 {
			return false, accepted, fmt.Sprintf("train answered %d %.200q", status, body)
		}
		return true, accepted, ""
	}
	if !is2xx {
		return false, 0, ""
	}
	var resp struct {
		Predictions []int  `json:"predictions"`
		Version     uint64 `json:"version"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil ||
		len(resp.Predictions) != 1 || resp.Predictions[0] < 0 || resp.Predictions[0] >= classes || resp.Version < 1 {
		return false, 0, fmt.Sprintf("classify answered %d %.200q", status, body)
	}
	return true, 0, ""
}

// call performs one HTTP request and returns its status and body.
func call(client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
