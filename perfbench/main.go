// Command perfbench is the repository's one benchmark: the ranked engine used
// as a library (rank-sepdense) and the HTTP daemon under open-loop load
// (serve-shared, serve-cold), end to end and, with --trace 1, layer by layer.
//
//	bash perfbench/run.sh --workload rank-sepdense --seed 1 --seconds 20 --trace 0
//
// The human-readable report goes to standard output; its last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Every output of
// the program under test is checked outside the timed sections; any wrong
// output makes the command exit 1. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. Layer metrics carry the end-to-end
// metric they should move.
type metricDef struct {
	Name, Unit string
	Moves      string
}

// endToEnd is the --trace 0 metric set, reported on every workload and
// listed in BENCHMARK.json.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s"},
	{Name: "init_ms_p50", Unit: "ms"},
	{Name: "first_ms_p50", Unit: "ms"},
	{Name: "delay_ms_p50", Unit: "ms"},
	{Name: "results_per_s", Unit: "1/s"},
	{Name: "lat_ms_p50", Unit: "ms"},
	{Name: "ttfr_ms_p50", Unit: "ms"},
	{Name: "goodput_rps", Unit: "1/s"},
	{Name: "allocs_per_result", Unit: "count"},
	{Name: "heap_mb", Unit: "MB"},
}

// endToEndTails are printed with the --trace 0 report but left out of its
// JSON line and of BENCHMARK.json. On a VM whose CPUs the host lends to
// other guests, a wall-time p95 is set by the ops that happen to overlap
// a stolen slice: for the same code, serve-shared's lat_ms_p95 doubled
// between runs as steal rose from about 2% to about 12% of CPU time, while
// its p50s moved by a fifth.
var endToEndTails = []metricDef{
	{Name: "delay_ms_p95", Unit: "ms"},
	{Name: "lat_ms_p95", Unit: "ms"},
}

var serviceEndpoints = []string{"enumerate", "next", "ndjson", "batch", "csp", "orbit", "diverse", "mis"}

// perLayer is the --trace 1 metric set, reported on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"minsep.ms", "ms", "init_ms_p50 on rank-sepdense"},
		{"minsep.count", "count", "init_ms_p50 on rank-sepdense"},
		{"pmc.ms", "ms", "init_ms_p50 on rank-sepdense, lat_ms_p95 on serve-cold"},
		{"pmc.count", "count", "init_ms_p50 on rank-sepdense, lat_ms_p95 on serve-cold"},
		{"pmc.blocks_ms", "ms", "init_ms_p50 on rank-sepdense, lat_ms_p95 on serve-cold"},
		{"pmc.blocks", "count", "init_ms_p50 on rank-sepdense, lat_ms_p95 on serve-cold"},
		{"core.init_ms", "ms", "init_ms_p50 and heap_mb on rank-sepdense"},
		{"core.init_rest_ms", "ms", "init_ms_p50 and heap_mb on rank-sepdense"},
		{"core.init_allocs", "count", "init_ms_p50 and heap_mb on rank-sepdense"},
		{"core.solve_us", "us", "delay_ms_p50 and results_per_s on rank-sepdense"},
		{"core.solves_per_result", "count", "delay_ms_p50 and results_per_s on rank-sepdense"},
		{"core.reuse_ratio", "ratio", "delay_ms_p50 and results_per_s on rank-sepdense"},
		{"cost.bagsum_ns", "ns", "delay_ms_p50 on rank-sepdense"},
		{"atoms.ms", "ms", "ttfr_ms_p50 on serve-shared and serve-cold"},
		{"atoms.count", "count", "ttfr_ms_p50 on serve-shared and serve-cold"},
		{"atoms.largest", "count", "ttfr_ms_p50 on serve-shared and serve-cold"},
		{"graph.canon_us", "us", "lat_ms_p50 on serve-shared"},
		{"graph.aut_us", "us", "lat_ms_p95 on serve-cold"},
		{"orbit.key_us_per_result", "us", "lat_ms_p95 on serve-cold"},
		{"orbit.skipped_branches", "count", "lat_ms_p95 on serve-cold"},
		{"orbit.reduction", "ratio", "lat_ms_p95 on serve-cold"},
		{"ckk.first_ms", "ms", "ttfr_ms_p50 on serve-cold"},
		{"ckk.delay_us", "us", "ttfr_ms_p50 on serve-cold"},
	}
	for _, ep := range serviceEndpoints {
		moves := "lat_ms_p50 and lat_ms_p95 on serve-shared and serve-cold"
		defs = append(defs,
			metricDef{"service." + ep + "_ms_p50", "ms", moves},
			metricDef{"service." + ep + "_ms_p95", "ms", moves})
	}
	return append(defs,
		metricDef{"service.pool.hit_ratio", "ratio", "lat_ms_p50 on serve-shared; goodput_rps, heap_mb on serve-cold"},
		metricDef{"service.pool.evictions", "count", "lat_ms_p50 on serve-shared; goodput_rps, heap_mb on serve-cold"},
		metricDef{"service.streams.hit_ratio", "ratio", "lat_ms_p50 on serve-shared; goodput_rps, heap_mb on serve-cold"},
		metricDef{"service.streams.evictions", "count", "lat_ms_p50 on serve-shared; goodput_rps, heap_mb on serve-cold"},
		metricDef{"service.streams.rebuilds", "count", "lat_ms_p50 on serve-shared; goodput_rps, heap_mb on serve-cold"},
		metricDef{"service.canon.hit_ratio", "ratio", "lat_ms_p50 on serve-shared"},
		metricDef{"service.canon.fallbacks", "count", "lat_ms_p50 on serve-shared"},
		metricDef{"service.prefetch.useful_ratio", "ratio", "lat_ms_p95 on serve-cold"},
		metricDef{"service.bytes_per_result", "B", "allocs_per_result on serve-shared"},
		metricDef{"harness.lag_ms_p95", "ms", "nothing: checks the run itself"},
		metricDef{"harness.op_self_us_p50", "us", "nothing: client-side time per op outside HTTP calls"},
		metricDef{"harness.trace_overhead_pct", "%", "nothing: traced minus untraced headline metric"},
	)
}()

// value is one measured number with the sample count behind it. Sampled
// is false when a percentile broke the minBeyond rule.
type value struct {
	V       float64
	N       int
	Sampled bool
}

func exact(v float64, n int) value { return value{V: v, N: n, Sampled: true} }

func pct(xs []float64, q float64) value {
	v, ok := percentile(xs, q)
	return value{V: v, N: len(xs), Sampled: ok}
}

// report is what one workload run produces.
type report struct {
	attempted, failed int
	wrong             []string // one description per failed op
	metrics           map[string]value
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]value{}} }

// fail records a failed op: an error, a refusal or a wrong answer. The
// workloads are built so that no op fails, so any failure makes the whole
// run incorrect.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(opts runOpts, ref *reference) (*report, error)
}

type runOpts struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

var workloads = []workload{
	{"rank-sepdense", runRank},
	{"serve-shared", func(o runOpts, ref *reference) (*report, error) { return runServe(o, ref, sharedSpec(ref)) }},
	{"serve-cold", func(o runOpts, ref *reference) (*report, error) { return runServe(o, ref, coldSpec(ref)) }},
}

func main() {
	wl := flag.String("workload", "", "workload name: rank-sepdense, serve-shared or serve-cold")
	seed := flag.Int64("seed", -1, "input seed (default: the reference default seed)")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = per-layer run (spans, layer pass, /v1/stats deltas)")
	record := flag.Bool("record", false, "print the reference cost digests of the rank-sepdense corpus and exit")
	flag.Parse()

	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *record {
		if err := recordDigests(ref); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of rank-sepdense, serve-shared, serve-cold), --seconds ≥ 1, --trace 0|1\n")
		os.Exit(2)
	}
	if *seed < 0 {
		*seed = ref.DefaultSeed
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	rep, err := w.run(opts, ref)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs, tails := endToEnd, endToEndTails
	if opts.trace {
		defs, tails = perLayer, nil
	}
	if !emit(os.Stdout, w.name, opts, rep, defs, tails) {
		os.Exit(1)
	}
}

// emit prints the human-readable report and the final JSON line, which
// holds defs but not tails; it reports whether every output was correct.
func emit(out *os.File, name string, opts runOpts, rep *report, defs, tails []metricDef) bool {
	mode := "end-to-end"
	if opts.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(out, "workload %s  seed %d  seconds %.0f  mode %s\n", name, opts.seed, opts.seconds.Seconds(), mode)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	metrics := map[string]map[string]any{}
	for i, d := range append(defs[:len(defs):len(defs)], tails...) {
		v, ok := rep.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: internal error: metric %s not measured\n", d.Name)
			return false
		}
		mark := ""
		if !v.Sampled {
			mark = "  (under-sampled: fewer than 10 samples beyond the percentile)"
		}
		line := fmt.Sprintf("  %-34s %14.4f %-6s n=%d%s", d.Name, v.V, d.Unit, v.N, mark)
		if d.Moves != "" {
			line += "  -> moves " + d.Moves
		}
		if i >= len(defs) {
			line += "  (printed only, not in the JSON line)"
		} else {
			metrics[d.Name] = map[string]any{"value": v.V, "unit": d.Unit}
		}
		fmt.Fprintln(out, line)
	}
	failRatio := 0.0
	if rep.attempted > 0 {
		failRatio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(out, "  %-34s %14.4f %-6s n=%d\n", "fail_ratio", failRatio, "ratio", rep.attempted)
	sort.Strings(rep.wrong)
	for i, w := range rep.wrong {
		if i == 20 {
			fmt.Fprintf(out, "  ... %d more wrong outputs\n", len(rep.wrong)-i)
			break
		}
		fmt.Fprintf(out, "  WRONG: %s\n", w)
	}
	correct := len(rep.wrong) == 0
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(out, strings.TrimSpace(string(line)))
	return correct
}
