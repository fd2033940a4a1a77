// Command perfbench is the repository benchmark: it runs one workload
// of the EMSTDP reproduction for a fixed time, checks the workload's
// outputs and prints the measured metrics.
//
//	bash perfbench/run.sh --workload train-chip --seed 1 --seconds 32 --trace 0
//
// Workloads: train-chip, serve-mixed and sweep-fig3 (see README.md for
// why each exists and which layers it stresses). Every workload reports
// the same metrics, the ones BENCHMARK.json names: with --trace 0 the
// last stdout line carries the end-to-end metrics; with --trace 1 the
// run alternates untraced and traced repetitions and the last line
// carries the per-layer metrics, measured from the traced repetitions.
// The line before it is the full report: host, every repetition's raw
// values, the medians, and the workload's own figures by name and unit.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"emstdp/internal/trace"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host identifies the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// report is the full record of one run, printed before the result line
// and written under the output directory: raw per-repetition values
// beside the medians, so later runs can be paired and their quartiles
// taken.
type report struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     bool                 `json:"trace"`
	Seconds   int                  `json:"seconds"`
	Host      host                 `json:"host"`
	Reps      []map[string]float64 `json:"reps"`
	Medians   map[string]float64   `json:"medians"`
	Exact     map[string]float64   `json:"exact"`
	Details   map[string]metric    `json:"details"`
	Problems  []string             `json:"problems"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
}

// outDir, relative to the checkout root, receives reports, traces and
// the expected exact values.
const outDir = ".bench_build/perfbench"

// spec is one metric BENCHMARK.json names. A count (optional) may be
// absent from a workload that does not drive its layer, and reads 0
// there; every other metric must be measured by every workload.
type spec struct {
	name, unit string
	optional   bool
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []spec{
	{name: "setup_s", unit: "s"},
	{name: "heap_mb", unit: "MiB"},
	{name: "ms_per_op", unit: "ms"},
}

// perLayer are the metrics of a traced run.
var perLayer = []spec{
	{name: "core.realize_s", unit: "s"},
	{name: "core.pretrain_s", unit: "s"},
	{name: "core.build_backend_s", unit: "s"},
	{name: "engine.replica_build_s", unit: "s"},
	{name: "engine.pool_efficiency", unit: "fraction"},
	{name: "runner.program_us", unit: "us"},
	{name: "runner.phases_us", unit: "us"},
	{name: "runner.apply_us", unit: "us"},
	{name: "runner.predict_us", unit: "us"},
	{name: "loihi.synaptic_events_per_sample", unit: "count", optional: true},
	{name: "loihi.spikes_per_sample", unit: "count", optional: true},
	{name: "loihi.compartment_updates_per_sample", unit: "count", optional: true},
	{name: "loihi.learning_ops_per_sample", unit: "count", optional: true},
	{name: "chipnet.host_transactions_per_sample", unit: "count", optional: true},
	{name: "loihi.cores_used", unit: "count", optional: true},
	{name: "stream.stalls", unit: "count", optional: true},
	{name: "stream.train_rejected", unit: "count", optional: true},
	{name: "serve.batch_size_mean", unit: "samples", optional: true},
	{name: "serve.coalesced_share", unit: "fraction", optional: true},
	{name: "serve.versions_cut", unit: "count", optional: true},
	{name: "orchestrator.issued", unit: "count", optional: true},
	{name: "orchestrator.cache_misses", unit: "count", optional: true},
	{name: "orchestrator.stalls", unit: "count", optional: true},
	{name: "orchestrator.width", unit: "count", optional: true},
	{name: "loihi.mesh_spikes", unit: "count", optional: true},
	{name: "loihi.mesh_hops", unit: "count", optional: true},
	{name: "loihi.mesh_stalls", unit: "count", optional: true},
	{name: "trace.overhead_pct", unit: "%"},
}

// run is the state one workload fills in.
type run struct {
	start   time.Time
	seed    uint64
	seconds float64
	traced  bool
	nproc   int
	tracer  *trace.Tracer
	// tk is the benchmark's own span track (nil untraced).
	tk *trace.Track

	reps      []map[string]float64
	exact     map[string]float64
	problems  []string
	attempted int64
	failed    int64
}

// workload runs repetitions until the time budget is spent and returns
// every figure it measured: the manifest's metrics (end-to-end, or
// per-layer when traced) and its own details.
type workload func(r *run) map[string]metric

var workloads = map[string]workload{
	"train-chip":  trainChip,
	"serve-mixed": serveMixed,
	"sweep-fig3":  sweepFig3,
	// Not a benchmark workload: the closed-loop calibration serve-mixed's
	// rates are derived from.
	"serve-capacity": serveCapacity,
}

func main() {
	name := flag.String("workload", "", "train-chip, serve-mixed or sweep-fig3")
	seed := flag.Uint64("seed", 1, "workload seed: the inputs each workload draws from it are listed in README.md")
	seconds := flag.Int("seconds", 40, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 runs traced repetitions and reports per-layer metrics")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, seed %d)\n", *name, *seconds, *traced, *seed)
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	r := &run{start: time.Now(), seed: *seed, seconds: float64(*seconds), traced: *traced == 1, nproc: nproc, exact: map[string]float64{}}
	if r.traced {
		r.tracer = trace.New()
		r.tk = r.tracer.Track("bench", 1<<16)
	}
	specs := endToEnd
	if r.traced {
		specs = perLayer
	}
	metrics, details := r.split(wl(r), specs)

	tag := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		r.problem("creating output directory: %v", err)
	}
	r.checkExpected(*name)
	if r.traced {
		if err := writeTrace(r.tracer, filepath.Join(outDir, tag+".trace.json")); err != nil {
			r.problem("writing trace: %v", err)
		}
	}
	for _, ms := range []map[string]metric{metrics, details} {
		for k, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				// Only a repetition that failed leaves no value; JSON has
				// no NaN, and the run already reports correct=false.
				r.problem("metric %s is %v", k, m.Value)
				ms[k] = metric{0, m.Unit}
			}
		}
	}

	rep := report{
		Workload: *name, Seed: *seed, Trace: r.traced, Seconds: *seconds,
		Host:      hostInfo(nproc),
		Reps:      r.reps,
		Medians:   medians(r.reps),
		Exact:     r.exact,
		Details:   details,
		Problems:  r.problems,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	blob, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if err := os.WriteFile(filepath.Join(outDir, tag+".report.json"), append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	last, err := json.Marshal(result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

// problem records a failed output check; any problem makes the run
// report correct=false.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// split sorts a workload's figures into the manifest's metrics, in the
// manifest's units, and the rest. A metric the workload did not measure
// fails the run, except an optional count, which reads 0.
func (r *run) split(all map[string]metric, specs []spec) (manifest, details map[string]metric) {
	manifest = make(map[string]metric, len(specs))
	for _, sp := range specs {
		m, ok := all[sp.name]
		switch {
		case !ok && sp.optional:
			m = metric{0, sp.unit}
		case !ok:
			r.problem("the workload did not measure %s", sp.name)
			m = metric{0, sp.unit}
		case m.Unit != sp.unit:
			r.problem("%s is in %s, the manifest says %s", sp.name, m.Unit, sp.unit)
		}
		manifest[sp.name] = m
		delete(all, sp.name)
	}
	return manifest, all
}

// repeat calls rep(i) until the run's budget, counted from its start,
// is spent: at least minReps times, and a further repetition starts
// only while the slowest one so far still fits before the deadline, so
// a slow host gets fewer repetitions rather than a longer run.
func (r *run) repeat(minReps int, rep func(i int)) {
	deadline := r.start.Add(time.Duration(r.seconds * float64(time.Second)))
	var slowest time.Duration
	for i := 0; ; i++ {
		if i >= minReps && time.Now().Add(slowest).After(deadline) {
			return
		}
		t0 := time.Now()
		rep(i)
		if d := time.Since(t0); d > slowest {
			slowest = d
		}
	}
}

// repTrack returns the span track for repetition i: traced runs
// alternate untraced (even i) and traced (odd i) repetitions, and only
// the traced ones record. Repetitions mark themselves "traced" = 1 in
// their raw values.
func (r *run) repTrack(i int) *trace.Track {
	if r.traced && i%2 == 1 {
		return r.tk
	}
	return nil
}

// pin records a value that must repeat exactly in every repetition of
// this run and in every run with the same seed and binary.
func (r *run) pin(name string, v float64) {
	if old, ok := r.exact[name]; ok && old != v {
		r.problem("%s differs between repetitions: %v vs %v", name, old, v)
		return
	}
	r.exact[name] = v
}

// median of the named value over the repetitions selected by traced.
func (r *run) median(name string, traced bool) float64 {
	var vs []float64
	for _, rep := range r.reps {
		if (rep["traced"] == 1) != traced {
			continue
		}
		if v, ok := rep[name]; ok {
			vs = append(vs, v)
		}
	}
	return quantile(vs, 0.5)
}

// overheadPct compares a throughput-like value (higher is better) or a
// latency-like value (lower is better) between the traced and untraced
// repetitions, as the percentage the traced ones lose.
func (r *run) overheadPct(name string, higherIsBetter bool) float64 {
	plain, traced := r.median(name, false), r.median(name, true)
	if higherIsBetter {
		return (plain/traced - 1) * 100
	}
	return (traced/plain - 1) * 100
}

// checkExpected compares the run's exact values with those stored by an
// earlier run of the same binary, workload and seed, and stores them if
// this is the first such run.
func (r *run) checkExpected(workload string) {
	if len(r.exact) == 0 {
		return
	}
	id, err := binaryID()
	if err != nil {
		r.problem("hashing benchmark binary: %v", err)
		return
	}
	path := filepath.Join(outDir, "expected", fmt.Sprintf("%s-%s-seed%d.json", id, workload, r.seed))
	if blob, err := os.ReadFile(path); err == nil {
		var want map[string]float64
		if err := json.Unmarshal(blob, &want); err != nil {
			r.problem("reading %s: %v", path, err)
			return
		}
		for k, v := range r.exact {
			if w, ok := want[k]; ok && w != v {
				r.problem("%s = %v, an earlier run with seed %d gave %v", k, v, r.seed, w)
			}
		}
		return
	}
	blob, err := json.Marshal(r.exact)
	if err != nil {
		r.problem("encoding expected values: %v", err)
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		r.problem("creating %s: %v", filepath.Dir(path), err)
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		r.problem("writing %s: %v", tmp, err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		r.problem("renaming %s: %v", tmp, err)
	}
}

// binaryID is a short content hash of the running executable, so stored
// expected values are only compared against the same build.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// writeTrace exports the benchmark's spans as Chrome trace-event JSON.
func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteChromeTrace(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo describes the machine: CPU model from /proc/cpuinfo where
// the platform has one.
func hostInfo(nproc int) host {
	h := host{CPU: "unknown", NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return h
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// medians reduces the repetitions to one median per key, separately for
// untraced keys and traced ones (prefixed "traced.").
func medians(reps []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, rep := range reps {
		prefix := ""
		if rep["traced"] == 1 {
			prefix = "traced."
		}
		for k, v := range rep {
			if k != "traced" {
				vals[prefix+k] = append(vals[prefix+k], v)
			}
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = quantile(vs, 0.5)
	}
	return out
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (NaN when vs is empty). vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durQuantile is quantile over durations, in the given unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d) / float64(unit)
	}
	return quantile(vs, q)
}

// span runs fn as a span named name on tk and returns its duration. A
// nil track times fn without recording.
func span(tk *trace.Track, name string, fn func()) time.Duration {
	b := tk.Begin()
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tk.End(b, name)
	return d
}

// heapMB forces a collection and returns the live heap in MiB. Callers
// keep the workload's model reachable across the call.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
