// Command perfbench is the repository's end-to-end benchmark. It drives the
// three paths of the monitoring→characterization pipeline in-process, from
// one Go process, and prints one JSON line of metrics:
//
//	go run . --workload pipeline|contended|ingest --seed N --seconds S --trace 0|1
//
// (run from this directory; run.sh builds the binary and runs it from the
// repository root). --trace 0 prints the end-to-end metrics, measured with
// tracing off; --trace 1 alternates untraced and traced rounds and prints
// the per-layer metrics. README.md documents every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/stats"
)

// processStart stands in for the process's start time: package variables
// initialize before main runs.
var processStart = now()

// setupPasses is how often a run repeats its set-up; setup_s is the median.
const setupPasses = 5

// metric is one named value of the output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the output line's schema.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric the benchmark prints, with its
// unit, in the order BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"jobs_per_s", "jobs/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"recover_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"workload.generate_ms", "ms"},
	{"slurm.run_ms", "ms"},
	{"slurm.run_nomon_ms", "ms"},
	{"slurm.events", "count"},
	{"slurm.passes", "count"},
	{"slurm.alloc_attempts", "count"},
	{"slurm.alloc_cache_hits", "count"},
	{"slurm.max_queue", "count"},
	{"slurm.starts_per_attempt", "ratio"},
	{"monitor.sample_ms", "ms"},
	{"monitor.overflows", "count"},
	{"trace.build_dataset_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.append_ms", "ms"},
	{"trace.snapshot_ms", "ms"},
	{"trace.segments", "count"},
	{"core.characterize_ms", "ms"},
	{"report.render_ms", "ms"},
	{"engine.busy_ms", "ms"},
	{"engine.parallel_eff", "ratio"},
	{"durable.ingest_ms", "ms"},
	{"durable.log_ms", "ms"},
	{"durable.wal_bytes", "bytes"},
	{"durable.wal_bytes_per_job", "bytes/job"},
	{"durable.fsyncs", "count"},
	{"host.probe_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// round is what one round of a workload measured.
type round struct {
	jobs      int                // jobs completed (or acknowledged) by the timed ops
	timed     time.Duration      // wall time of the timed ops and queries
	ops       []float64          // per-op wall time, ms
	queries   []float64          // per-query wall time, ms
	recovers  []float64          // per-recovery wall time, ms
	attempted int                // ops, queries and recoveries started
	counters  map[string]float64 // exact per-layer counts; traced rounds
}

// bench is one workload: one of the three benchmarked paths.
//
// A run does a fixed number of rounds, sized from --seconds and the
// workload's nominal round time, never from the clock, so every run with
// the same arguments does identical work. Round i uses input population i,
// so a run averages over as many populations as it has rounds; a traced run
// gives each population to an untraced and a traced round, which pairs them
// for bench.trace_overhead_pct.
type bench interface {
	// roundSeconds is a round's nominal duration, for sizing runs.
	roundSeconds() float64
	// setup builds the first round's inputs from seed, outside every
	// timed region.
	setup(seed uint64, tr *tracer) error
	// run executes one round on population pop; tr is nil in untraced
	// rounds.
	run(tr *tracer, pop int, r *round) error
	// layers derives the per-layer metrics from the traced rounds' spans.
	layers(tr *tracer) (map[string]float64, error)
}

func main() {
	name := flag.String("workload", "", "pipeline, contended or ingest")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "nominal run length; sizes the run's fixed number of rounds")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for on-disk state, removed at exit")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(*name, *seed, *seconds, *traceFlag == 1, *workdir)
	if res != nil {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures workload name in a fresh directory under workdir.
func run(name string, seed uint64, seconds float64, traced bool, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var w bench
	switch name {
	case "pipeline":
		w = newPipeline(dir, pipelineJobs)
	case "contended":
		w = newContended(dir, contendedJobs)
	case "ingest":
		w = newIngest(dir, ingestJobs)
	default:
		return nil, fmt.Errorf("unknown workload %q (want pipeline, contended or ingest)", name)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	return measure(w, seed, seconds, tr)
}

// measure sets up w, runs its rounds and assembles the output line: the
// end-to-end metrics, or with tr non-nil the per-layer metrics of a run
// whose odd rounds are traced into tr. A failed check returns the result
// with Correct false alongside the error.
func measure(w bench, seed uint64, seconds float64, tr *tracer) (*result, error) {
	traced := tr != nil
	rounds := max(2, int(math.Round(seconds/w.roundSeconds())))
	if traced {
		rounds += rounds % 2
	}

	probes := []float64{hostProbe(), hostProbe(), hostProbe()}
	setups := make([]float64, setupPasses)
	start := processStart
	for i := range setups {
		// Only the last pass records spans, so the traced set-up layers
		// count one set-up.
		var str *tracer
		if i == len(setups)-1 {
			str = tr
		}
		if err := w.setup(seed, str); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[i] = since(start).Seconds()
		runtime.GC() // the next pass starts on a settled heap, as the first does
		start = now()
	}

	var plain, tracedRounds []round
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for i := 0; i < rounds; i++ {
		pop, onTrace := i, false
		if traced {
			// Pairs alternate which round goes first, so a warm-up or
			// drift within the run does not favour either side.
			pop = i / 2
			onTrace = i%2 != pop%2
		}
		var rtr *tracer
		if onTrace {
			rtr = tr
		}
		var r round
		err := w.run(rtr, pop, &r)
		res.Attempted += r.attempted
		if err != nil {
			res.Correct, res.Failed = false, 1
			return res, err
		}
		if onTrace {
			tracedRounds = append(tracedRounds, r)
		} else {
			plain = append(plain, r)
		}
		probes = append(probes, hostProbe())
	}
	probes = append(probes, hostProbe(), hostProbe())
	// A diagnostic for reading a run beside others: the host probe shows
	// whether the machine, not the code, was slower.
	fmt.Fprintf(os.Stderr, "perfbench: %d rounds, host probe median %.2f ms\n", rounds, stats.Median(probes))

	if !traced {
		var ops, queries, recovers []float64
		for _, r := range plain {
			ops = append(ops, r.ops...)
			queries = append(queries, r.queries...)
			recovers = append(recovers, r.recovers...)
		}
		vals := map[string]float64{
			"jobs_per_s":   throughput(plain),
			"op_p50_ms":    stats.Median(ops),
			"op_p90_ms":    stats.Quantile(ops, 0.9),
			"query_p50_ms": stats.Median(queries),
			"recover_ms":   stats.Median(recovers),
			"setup_s":      stats.Median(setups),
			"peak_rss_mb":  peakRSSMB(),
		}
		return res, fill(res, endToEnd, vals)
	}

	vals, err := w.layers(tr)
	if err != nil {
		res.Correct, res.Failed = false, 1
		return res, err
	}
	// Exact counters come from the first traced round, which every traced
	// run with the same seed repeats bit for bit.
	for k, v := range tracedRounds[0].counters {
		vals[k] = v
	}
	vals["host.probe_ms"] = stats.Median(probes)
	vals["bench.trace_overhead_pct"] = 100 * (throughput(plain)/throughput(tracedRounds) - 1)
	return res, fill(res, perLayer, vals)
}

// fill copies the listed metrics from vals into res. A layer the workload
// never calls reads 0; a metric left unmeasured (NaN) fails the run.
func fill(res *result, list []struct{ name, unit string }, vals map[string]float64) error {
	for _, m := range list {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct, res.Failed = false, 1
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return nil
}

// throughput is jobs per timed second over rounds.
func throughput(rs []round) float64 {
	var jobs int
	var timed time.Duration
	for _, r := range rs {
		jobs += r.jobs
		timed += r.timed
	}
	return float64(jobs) / timed.Seconds()
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
