// Command edbench is the repository benchmark. One run drives one workload
// through the public surfaces — the edattack facade and the
// internal/{core,dispatch,sweep,serve} entry points — checks every output,
// prints its metrics by name with their units, and ends with one JSON line:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the JSON metrics are the end-to-end set listed in
// BENCHMARK.json; with -trace 1 they are the per-layer set, read from the
// program's own metrics registry and from spans the benchmark records
// around each call into a layer. README.md documents the workloads, every
// metric, and which end-to-end metric each layer metric should move.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash edbench/run.sh --workload attack-exact --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark input set. run measures for the given budget
// (trace off) or makes the fixed-size traced run (trace on).
type workload struct {
	name string
	why  string
	run  func(c runConfig) (*report, error)
}

var workloads = []workload{
	{
		name: "attack118",
		why:  "case118 full attack pipeline, cold then warm repeat: dive/polish, dispatch and qp hold almost all of the wall",
		run:  func(c runConfig) (*report, error) { return runAttack(c, attack118Spec) },
	},
	{
		name: "attack-exact",
		why:  "case30 attacks solved to proven optimality, cold then warm repeat: MILP and LP rounds hold most of the wall",
		run:  func(c runConfig) (*report, error) { return runAttack(c, attackExactSpec) },
	},
	{
		name: "serve-screen",
		why:  "open-loop evaluate/sweep mix against an in-process edserve: admission, queue, batcher, caches and single dispatch solves",
		run:  runServe,
	},
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // directory traced runs write their span files to
	label   string // workload name and seed, for file names
}

// report is what a workload measured. The primary and secondary samples
// feed the end-to-end metrics common to every workload; detail holds the
// workload's own named metrics (printed, not in the JSON line); layers
// holds the per-layer metrics of a traced run.
type report struct {
	setup     []float64 // seconds per repeated set-up
	primary   []float64 // ms per primary operation
	secondary []float64 // ms per secondary operation
	attempted int
	failed    int            // operations that errored or were refused
	incorrect map[string]int // output-check failures by check name
	detail    []named
	layers    map[string]float64
	notes     []string
}

type named struct {
	name  string
	unit  string
	value float64
}

func (r *report) add(name, unit string, v float64) {
	r.detail = append(r.detail, named{name, unit, v})
}

func (r *report) fail(check string) {
	if r.incorrect == nil {
		r.incorrect = map[string]int{}
	}
	r.incorrect[check]++
}

// setLayers records per-layer metrics, replacing earlier readings of the
// same names.
func (r *report) setLayers(m map[string]float64) {
	if r.layers == nil {
		r.layers = map[string]float64{}
	}
	for k, v := range m {
		r.layers[k] = v
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// e2eUnits lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"primary_p50_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// layerUnits lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order. A layer the workload does not drive itself is read
// from a short probe of that layer in the same run.
var layerUnits = []struct{ name, unit string }{
	{"core.rounds_s", "s"},
	{"core.outside_rounds_s", "s"},
	{"core.dive_share", "ratio"},
	{"core.subproblems", "count"},
	{"core.pruned", "count"},
	{"core.truncated", "count"},
	{"core.rounds", "count"},
	{"core.warm_speedup", "ratio"},
	{"core.cert_delta_max_pp", "pp"},
	{"milp.nodes", "count"},
	{"milp.node_s", "s"},
	{"milp.pruned", "count"},
	{"milp.incumbents", "count"},
	{"milp.presolve_bounds", "count"},
	{"milp.cuts", "count"},
	{"lp.solves", "count"},
	{"lp.pivots", "count"},
	{"lp.solve_s", "s"},
	{"lp.warm_hit", "ratio"},
	{"lp.refactorizations", "count"},
	{"lp.ftran", "count"},
	{"lp.btran", "count"},
	{"dispatch.solve_ms_p50", "ms"},
	{"dispatch.solve_ms_p99", "ms"},
	{"qp.iterations_mean", "count"},
	{"qp.rounds_mean", "count"},
	{"serve.evaluate.queue_ms_p50", "ms"},
	{"serve.evaluate.queue_ms_p99", "ms"},
	{"serve.evaluate.solve_ms_p50", "ms"},
	{"serve.evaluate.transport_ms_p50", "ms"},
	{"serve.sweep.queue_ms_mean", "ms"},
	{"serve.sweep.queue_ms_p99", "ms"},
	{"serve.sweep.solve_ms_p50", "ms"},
	{"serve.sweep.transport_ms_p50", "ms"},
	{"serve.refused", "count"},
	{"serve.sweep_merged_mean", "count"},
	{"serve.heap_live_mb", "MB"},
	{"sweep.eval_ms_p50", "ms"},
	{"sweep.scenarios_per_s", "1/s"},
	{"sweep.cache_hit_ratio", "ratio"},
	{"go.mallocs_per_attack", "count"},
	{"go.alloc_mb_per_attack", "MB"},
	{"go.mallocs_per_request", "count"},
	{"go.gc_cycles", "count"},
	{"gen.lag_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: attack118, attack-exact or serve-screen")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "how long the run measures")
	trace := flag.Int("trace", 0, "1 makes the traced run that reports the per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory traced runs write their span files to")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.name
		}
		fmt.Fprintf(os.Stderr, "edbench: need -workload in {%s}, -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		spans:   *spans,
		label:   fmt.Sprintf("%s-seed%d", w.name, *seed),
	}
	fmt.Printf("workload %s (seed %d, %gs, trace %d): %s\n", w.name, cfg.seed, cfg.seconds, *trace, w.why)
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res := summarize(cfg, rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "edbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summarize prints the human-readable report and builds the JSON result.
func summarize(cfg runConfig, rep *report) result {
	incorrect := 0
	checks := make([]string, 0, len(rep.incorrect))
	for check, n := range rep.incorrect {
		incorrect += n
		checks = append(checks, fmt.Sprintf("%s=%d", check, n))
	}
	sort.Strings(checks)
	errorRate := float64(rep.failed+incorrect) / float64(max(rep.attempted, 1))

	metrics := map[string]metric{}
	if cfg.trace {
		for _, l := range layerUnits {
			metrics[l.name] = metric{rep.layers[l.name], l.unit}
		}
	} else {
		vals := map[string]float64{
			"setup_s":          median(rep.setup),
			"primary_p50_ms":   median(rep.primary),
			"secondary_p50_ms": median(rep.secondary),
			"max_rss_mb":       maxRSSMB(),
		}
		for _, e := range e2eUnits {
			metrics[e.name] = metric{vals[e.name], e.unit}
		}
	}
	rep.add("error_rate", "ratio", errorRate)
	rep.add("max_rss_mb", "MB", maxRSSMB())

	fmt.Printf("samples: %d set-ups, %d primary, %d secondary; attempted %d, failed %d, incorrect %d\n",
		len(rep.setup), len(rep.primary), len(rep.secondary), rep.attempted, rep.failed, incorrect)
	if len(checks) > 0 {
		fmt.Printf("failing checks: %s\n", strings.Join(checks, " "))
	}
	for _, d := range rep.detail {
		fmt.Printf("  %-34s %14.6g %s\n", d.name, d.value, d.unit)
	}
	for _, n := range rep.notes {
		fmt.Printf("note: %s\n", n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return result{
		Correct:   incorrect == 0,
		Attempted: rep.attempted,
		Failed:    min(rep.failed+incorrect, rep.attempted),
		Metrics:   metrics,
	}
}

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOf returns the highest percentile up to want that has at least ten
// samples beyond it, and its value; with fewer than 20 samples no
// percentile qualifies and the maximum is reported.
func tailOf(xs []float64, want float64) (float64, float64) {
	for _, q := range []float64{0.999, 0.99, 0.98, 0.95, 0.90, 0.80, 0.50} {
		if q <= want && float64(len(xs))*(1-q) >= 10 {
			return q, quantile(xs, q)
		}
	}
	return 1, quantile(xs, 1)
}

func pctLabel(q float64) string {
	return strings.TrimSuffix(strings.TrimSuffix(fmt.Sprintf("%.1f", q*100), "0"), ".")
}

// addTiming adds <prefix>_p50_<unit>, the highest tail percentile up to
// want that xs supports, and the sample count to the report.
func (r *report) addTiming(prefix, unit string, want float64, xs []float64) {
	r.add(prefix+"_p50_"+unit, unit, median(xs))
	q, v := tailOf(xs, want)
	r.add(fmt.Sprintf("%s_p%s_%s", prefix, pctLabel(q), unit), unit, v)
	r.add(prefix+"_n", "count", float64(len(xs)))
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// memDelta reads the runtime's allocation counters; the difference of two
// readings is the allocation work in between.
type memDelta struct{ mallocs, bytes, gc uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gc - b.gc}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
