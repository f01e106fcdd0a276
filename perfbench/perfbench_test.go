package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Small sizes keep the self-test to seconds; the code paths are the ones
// the benchmark runs.
func smallBenches(t *testing.T) map[string]func() bench {
	return map[string]func() bench{
		"pipeline":  func() bench { return newPipeline(t.TempDir(), 2000) },
		"contended": func() bench { return newContended(t.TempDir(), 3000) },
		"ingest":    func() bench { return newIngest(t.TempDir(), 5*ingestBatch) },
	}
}

// exactCounters are the per-layer metrics that must repeat bit for bit.
var exactCounters = []string{
	"slurm.events", "slurm.passes", "slurm.alloc_attempts", "slurm.alloc_cache_hits",
	"slurm.max_queue", "slurm.starts_per_attempt", "monitor.overflows",
	"trace.segments", "durable.wal_bytes", "durable.wal_bytes_per_job", "durable.fsyncs",
}

func TestTracedReplicatorMatchesExperiment(t *testing.T) {
	exp := pipelineExperiment(2000)
	plain := exp.Replicator()
	for rep, seed := range []uint64{11, 12} {
		recs := make([]repRecord, 2)
		batchSpan := -1
		_, got, err := tracedReplicator(exp, newTracer(), &batchSpan, recs)(context.Background(), rep, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain(context.Background(), rep, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSample(got, want) {
			t.Errorf("seed %d: traced sample %v, Experiment.Replicator() %v", seed, got, want)
		}
	}
}

func TestTracedRunsRepeatAndHeldOutSeedPasses(t *testing.T) {
	for name, mk := range smallBenches(t) {
		t.Run(name, func(t *testing.T) {
			var runs []*result
			for i := 0; i < 2; i++ {
				tr := newTracer()
				res, err := measure(mk(), 1, 0, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced run: %+v", res)
				}
				checkSpans(t, tr)
				runs = append(runs, res)
			}
			for _, m := range perLayer {
				if _, ok := runs[0].Metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
			for _, name := range exactCounters {
				if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}

			res, err := measure(mk(), 2, 0, nil)
			if err != nil {
				t.Fatalf("held-out seed: %v", err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("held-out seed: %+v", res)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

// checkSpans checks that every span closed and that the self times of each
// op's spans sum to no more than the op's wall time, from its first span's
// start to its last span's end.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	self := selfTimes(tr.spans)
	type window struct{ lo, hi, self time.Duration }
	ops := map[int]*window{}
	for i, s := range tr.spans {
		if s.end < 0 {
			t.Fatalf("span %s of op %d never ended", s.name, s.op)
		}
		w := ops[s.op]
		if w == nil {
			w = &window{lo: s.start, hi: s.end}
			ops[s.op] = w
		}
		w.lo, w.hi, w.self = min(w.lo, s.start), max(w.hi, s.end), w.self+self[i]
	}
	for op, w := range ops {
		if w.self > w.hi-w.lo {
			t.Errorf("op %d: self times sum to %v, wall time %v", op, w.self, w.hi-w.lo)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{name: "batch", op: 1, parent: -1, start: 0, end: 100},
		// Two concurrent children overlapping on [30, 50], and one that
		// runs past its parent's end.
		{name: "rep", op: 2, parent: 0, start: 10, end: 50},
		{name: "rep", op: 3, parent: 0, start: 30, end: 60},
		{name: "late", op: 4, parent: 0, start: 90, end: 120},
	}
	self := selfTimes(spans)
	if want := time.Duration(100 - 50 - 10); self[0] != want {
		t.Errorf("parent self time %v, want %v", self[0], want)
	}
	if self[1] != 40 || self[2] != 30 || self[3] != 30 {
		t.Errorf("leaf self times %v", self[1:])
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics printed in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := smallBenches(t)[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}
