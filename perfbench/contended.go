package main

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/report"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Contended sizing: BenchmarkSchedule's population shape with arrivals
// compressed 4x onto half the proportionally scaled cluster, so the pending
// queue stays thousands deep and scheduling passes dominate. Populations are
// 10k jobs: at 30k one simulation's time varied by a third between repeats
// of the same input, at 10k by under a tenth, and a run of small
// simulations averages over more populations. A round simulates four
// populations, each followed by a figures query, then recovers the four
// datasets.
const (
	contendedJobs     = 10_000
	contendedCompress = 0.25
	contendedSims     = 4
)

// contended is the scheduler under queue pressure, monitor off. One op is
// one full simulation (the body of slurm.Simulate, kept open so the query
// can build the schedule's dataset). The query characterizes the schedule
// and renders the paper's figures; the recovery reads the round's
// schedules back from the JSON `simcloud -out` writes.
type contended struct {
	dir  string
	jobs int // per population
	seed uint64
	gcfg workload.Config
	cfg  slurm.Config
	// pop and specs are the population generated last. Set-up builds
	// population 0; the others are built before their simulation, outside
	// the timed region, so one population is held at a time.
	pop   int
	specs []workload.JobSpec
	// seen holds each simulated population's counters and figures; a
	// population simulated again must reproduce both.
	seen map[int]simRecord
}

type simRecord struct {
	counters map[string]float64
	figures  []byte
}

func newContended(dir string, jobs int) *contended { return &contended{dir: dir, jobs: jobs} }

func (c *contended) roundSeconds() float64 { return 3.8 }

func (c *contended) setup(seed uint64, tr *tracer) error {
	factor := float64(c.jobs) / paperJobs
	c.seed = seed
	c.gcfg = workload.ScaledConfig(factor)
	c.gcfg.TotalJobs = c.jobs
	c.cfg = slurm.DefaultConfig()
	c.cfg.Cluster.Nodes = max(2, int(224*factor/2+0.5))
	c.seen = map[int]simRecord{}
	c.specs = nil // the last pass's population, dropped before the next is built
	return c.population(0, tr)
}

// population builds population pop: arrivals compressed onto the small
// cluster, infeasible jobs dropped.
func (c *contended) population(pop int, tr *tracer) error {
	raw, err := generate(c.gcfg, dist.StreamSeed(c.seed, uint64(pop)), tr, tr.newOp(), -1)
	if err != nil {
		return err
	}
	for i := range raw {
		raw[i].SubmitSec *= contendedCompress
	}
	c.pop = pop
	c.specs, _ = slurm.Feasible(c.cfg, raw)
	if len(c.specs) == 0 {
		return fmt.Errorf("population %d has no feasible jobs", pop)
	}
	return nil
}

// simulate runs the cached population to completion and checks it.
func (c *contended) simulate(tr *tracer) (*slurm.Simulator, map[int64]*slurm.Result, slurm.Stats, error) {
	id := tr.begin("slurm.run", tr.newOp(), -1)
	defer tr.end(id)
	sim, err := slurm.NewSimulator(c.cfg)
	if err != nil {
		return nil, nil, slurm.Stats{}, err
	}
	results, st, err := sim.Run(c.specs)
	if err == nil && st.Completed != len(c.specs) {
		err = fmt.Errorf("check: simulation completed %d of %d jobs", st.Completed, len(c.specs))
	}
	return sim, results, st, err
}

// run simulates round pop's three populations. Round 0 of an untraced run
// simulates its first population twice; the second run, untimed, must
// reproduce the counter tuple.
func (c *contended) run(tr *tracer, pop int, r *round) error {
	paths := make([]string, contendedSims)
	figs := make([][]byte, contendedSims)
	for i := 0; i < contendedSims; i++ {
		p := pop*contendedSims + i
		if p != c.pop {
			if err := c.population(p, tr); err != nil {
				return err
			}
		}
		runtime.GC()
		r.attempted++
		start := now()
		sim, results, st, err := c.simulate(tr)
		d := since(start)
		if err != nil {
			return err
		}
		r.jobs += st.Completed
		r.ops = append(r.ops, ms(d))
		r.timed += d
		counters := schedCounters(st)
		if i == 0 {
			r.counters = counters
		}
		if p == 0 && tr == nil {
			r.attempted++
			_, _, again, err := c.simulate(nil)
			if err != nil {
				return err
			}
			if got := schedCounters(again); !maps.Equal(got, counters) {
				return fmt.Errorf("check: population 0 simulated again gave counters %v, first %v", got, counters)
			}
		}

		runtime.GC()
		r.attempted++
		start = now()
		op := tr.newOp()
		id := tr.begin("query", op, -1)
		var ds *trace.Dataset
		tr.call("trace.build_dataset", op, id, func() {
			ds = sim.BuildDataset(c.specs, results, c.gcfg.DurationDays)
		})
		fig, err := figures(ds, tr, op, id)
		tr.end(id)
		qd := since(start)
		if err != nil {
			return err
		}
		r.queries = append(r.queries, ms(qd))
		r.timed += qd
		if prev, ok := c.seen[p]; ok && (!maps.Equal(prev.counters, counters) || !bytes.Equal(prev.figures, fig)) {
			return fmt.Errorf("check: population %d simulated again gave different counters or figures", p)
		}
		c.seen[p] = simRecord{counters, fig}
		paths[i], figs[i] = filepath.Join(c.dir, fmt.Sprintf("schedule-%d.json", i)), fig
		if err := writeDataset(paths[i], ds); err != nil {
			return err
		}
	}

	r.attempted += len(paths)
	reads, err := recoverDatasets(paths, figs, tr)
	if err != nil {
		return err
	}
	r.recovers = append(r.recovers, reads...)
	return nil
}

// figures characterizes ds and renders the paper's figures, as the
// characterize CLI does.
func figures(ds *trace.Dataset, tr *tracer, op, parent int) ([]byte, error) {
	var rep *core.Report
	tr.call("core.characterize", op, parent, func() { rep = core.Characterize(ds) })
	var out bytes.Buffer
	var err error
	tr.call("report.render", op, parent, func() { err = report.RenderReport(&out, rep) })
	return out.Bytes(), err
}

// schedCounters is one simulation's exact scheduler counter tuple.
func schedCounters(st slurm.Stats) map[string]float64 {
	return map[string]float64{
		"slurm.events":             float64(st.EventsProcessed),
		"slurm.passes":             float64(st.SchedulePasses),
		"slurm.alloc_attempts":     float64(st.AllocAttempts),
		"slurm.alloc_cache_hits":   float64(st.AllocCacheHits),
		"slurm.max_queue":          float64(st.MaxQueueLen),
		"slurm.starts_per_attempt": float64(st.Completed) / float64(st.AllocAttempts),
		"monitor.overflows":        float64(st.MonitorOverflow),
	}
}

func (c *contended) layers(tr *tracer) (map[string]float64, error) {
	lt := tr.layerTimes()
	run := stats.Median(lt["slurm.run"])
	return map[string]float64{
		"workload.generate_ms": stats.Median(lt["workload.generate"]),
		"slurm.run_ms":         run,
		// The monitor is off on this workload, so the run is its own
		// monitor-off baseline and monitor.sample_ms is 0.
		"slurm.run_nomon_ms":     run,
		"trace.build_dataset_ms": stats.Median(lt["trace.build_dataset"]),
		"trace.decode_ms":        stats.Median(lt["trace.decode"]),
		"core.characterize_ms":   stats.Median(lt["core.characterize"]),
		"report.render_ms":       stats.Median(lt["report.render"]),
	}, nil
}
