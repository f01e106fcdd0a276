package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/slurm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// paperJobs is the paper's full population; populations are sized in jobs
// and mapped back to generator scale factors.
const paperJobs = 74820

// Pipeline sizing: each replication is a 2.5k-job paper-shaped population
// on the proportionally scaled cluster, and a round is one engine batch of
// four replications per worker, so a worker that finishes early has more to
// pick up. A replication's cost follows its population's GPU-hours per job,
// which vary by a quarter to a third from seed to seed at every size from
// 2.5k to 20k jobs, so a run is many small replications rather than a few
// large ones: its medians and totals then average over about ninety
// populations.
const (
	pipelineJobs       = 2_500
	pipelineRepsPerCPU = 4
	monitorIntervalSec = 30 // simcloud's -monitor-interval default
)

// pipelineExperiment is the `simcloud -reps` configuration at jobs jobs per
// replication: paper-shaped arrivals, a 224·scale-node cluster, colocation
// on, the monitor at the CLI's default cadence.
func pipelineExperiment(jobs int) engine.Experiment {
	scale := float64(jobs) / paperJobs
	gcfg := workload.ScaledConfig(scale)
	gcfg.TotalJobs = jobs
	scfg := slurm.DefaultConfig()
	scfg.Cluster.Nodes = max(4, int(float64(scfg.Cluster.Nodes)*scale))
	scfg.Policy.Colocate = true
	mc := monitor.DefaultConfig()
	mc.GPUIntervalSec = monitorIntervalSec
	scfg.Monitor = &mc
	return engine.Experiment{Gen: gcfg, Sim: scfg}
}

// pipeline is the generate→simulate→characterize path of `simcloud -reps`.
// One op is one replication; round pop is the batch with root seed
// StreamSeed(seed, pop). The batch's replicated report, what the CLI
// prints, is timed with it; each replication's schedule is then queried
// for its figures and saved as `simcloud -out` writes it, and the round's
// recovery reads the four back.
type pipeline struct {
	dir     string
	jobs    int // per replication
	seed    uint64
	exp     engine.Experiment
	workers int
	// feasible[rep] is the number of jobs of population 0's replication
	// rep that fit the cluster, counted in set-up.
	feasible []int
	// fingerprints holds each population's merged-summary fingerprint; a
	// population run twice (untraced, then traced) must reproduce it.
	fingerprints map[int]string
	// last is the latest traced round's per-replication record, for the
	// monitor-off reruns in layers.
	last []repRecord
	// busy and walls are each traced batch's summed replication time and
	// wall time, ms.
	busy, walls []float64
}

func newPipeline(dir string, jobs int) *pipeline { return &pipeline{dir: dir, jobs: jobs} }

func (p *pipeline) roundSeconds() float64 { return 2.3 }

// setup generates population 0 and counts the jobs of each replication
// that fit the cluster, which round 0's replications must complete.
func (p *pipeline) setup(seed uint64, tr *tracer) error {
	p.seed = seed
	p.workers = runtime.GOMAXPROCS(0)
	p.exp = pipelineExperiment(p.jobs)
	p.fingerprints = map[int]string{}
	p.feasible = make([]int, pipelineRepsPerCPU*p.workers)
	op := tr.newOp()
	root := dist.StreamSeed(seed, 0)
	for rep := range p.feasible {
		specs, err := generate(p.exp.Gen, dist.StreamSeed(root, uint64(rep)), tr, op, -1)
		if err != nil {
			return err
		}
		if len(specs) != p.exp.Gen.TotalJobs {
			return fmt.Errorf("replication %d generated %d jobs, want %d", rep, len(specs), p.exp.Gen.TotalJobs)
		}
		ok, _ := slurm.Feasible(p.exp.Sim, specs)
		p.feasible[rep] = len(ok)
	}
	return nil
}

// generate builds the population of gcfg under seed, in a workload span.
func generate(gcfg workload.Config, seed uint64, tr *tracer, op, parent int) ([]workload.JobSpec, error) {
	gcfg.Seed = seed
	id := tr.begin("workload.generate", op, parent)
	defer tr.end(id)
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		return nil, err
	}
	return gen.GenerateSpecs(), nil
}

// repRecord is what one replication leaves for the round's checks.
type repRecord struct {
	seed  uint64
	ms    float64 // the replication's wall time
	runMs float64 // its simulation's wall time; traced rounds only
	ds    *trace.Dataset
	st    slurm.Stats // traced rounds only
}

func (p *pipeline) run(tr *tracer, pop int, r *round) error {
	cfg := engine.Config{
		RootSeed: dist.StreamSeed(p.seed, uint64(pop)),
		Reps:     len(p.feasible),
		Workers:  p.workers,
	}
	recs := make([]repRecord, cfg.Reps)
	batchOp := tr.newOp()
	batchSpan := -1
	dsrep := p.exp.DatasetReplicator()
	if tr != nil {
		dsrep = tracedReplicator(p.exp, tr, &batchSpan, recs)
	}
	// Experiment.Replicator() is this wrapper without the timing and
	// without keeping each replication's dataset for the queries.
	fn := func(ctx context.Context, rep int, seed uint64) (engine.Sample, error) {
		start := now()
		ds, sm, err := dsrep(ctx, rep, seed)
		recs[rep].seed, recs[rep].ms, recs[rep].ds = seed, ms(since(start)), ds
		return sm, err
	}

	runtime.GC()
	r.attempted += cfg.Reps
	start := now()
	batchSpan = tr.begin("engine.run", batchOp, -1)
	batch, err := engine.Run(context.Background(), cfg, fn)
	tr.end(batchSpan)
	wall := since(start)
	if err != nil {
		return err
	}
	if err := batch.FirstErr(); err != nil {
		return err
	}
	if n := batch.Completed(); n != cfg.Reps {
		return fmt.Errorf("check: %d of %d replications completed", n, cfg.Reps)
	}
	for _, res := range batch.Results {
		done, rejected := int(res.Sample["jobs_completed"]), int(res.Sample["jobs_rejected"])
		if done+rejected != p.exp.Gen.TotalJobs || (pop == 0 && done != p.feasible[res.Rep]) {
			return fmt.Errorf("check: replication %d of population %d completed %d and rejected %d jobs",
				res.Rep, pop, done, rejected)
		}
		r.jobs += done
		r.ops = append(r.ops, recs[res.Rep].ms)
	}
	fp := batch.Merged.Fingerprint()
	if want, ok := p.fingerprints[pop]; ok && fp != want {
		return fmt.Errorf("check: population %d fingerprint %s, earlier %s", pop, fp, want)
	}
	p.fingerprints[pop] = fp
	if tr != nil {
		p.last = recs
		busy := 0.0
		for _, rec := range recs {
			busy += rec.ms
		}
		p.busy, p.walls = append(p.busy, busy), append(p.walls, ms(wall))
		r.counters = slurmCounters(recs)
	}

	// The replicated report `simcloud -reps` prints is timed with the
	// batch; the queries are the figures of each replication's schedule.
	var out bytes.Buffer
	rstart := now()
	tr.call("report.summary", tr.newOp(), -1, func() {
		err = report.ReplicationSummary(&out, "replicated DES run", batch)
	})
	r.timed += wall + since(rstart)
	if err != nil {
		return err
	}
	figs := make([][]byte, len(recs))
	paths := make([]string, len(recs))
	for i, rec := range recs {
		runtime.GC()
		r.attempted++
		start := now()
		op := tr.newOp()
		id := tr.begin("query", op, -1)
		figs[i], err = figures(rec.ds, tr, op, id)
		tr.end(id)
		qd := since(start)
		if err != nil {
			return err
		}
		r.queries = append(r.queries, ms(qd))
		r.timed += qd
		paths[i] = filepath.Join(p.dir, fmt.Sprintf("replication-%d.json", i))
		if err := writeDataset(paths[i], rec.ds); err != nil {
			return err
		}
	}

	r.attempted += len(paths)
	reads, err := recoverDatasets(paths, figs, tr)
	if err != nil {
		return err
	}
	r.recovers = append(r.recovers, reads...)

	if pop == 0 && tr == nil {
		// Determinism: the CLI's own replicator must reproduce
		// replication 0's sample.
		r.attempted++
		sm, err := p.exp.Replicator()(context.Background(), 0, recs[0].seed)
		if err != nil {
			return err
		}
		if !sameSample(sm, batch.Results[0].Sample) {
			return fmt.Errorf("check: Experiment.Replicator() does not reproduce replication 0's sample")
		}
	}
	return nil
}

// slurmCounters folds the round's replications into one counter tuple:
// counts summed, the queue's maximum.
func slurmCounters(recs []repRecord) map[string]float64 {
	var sum slurm.Stats
	for _, rec := range recs {
		sum.Completed += rec.st.Completed
		sum.MaxQueueLen = max(sum.MaxQueueLen, rec.st.MaxQueueLen)
		sum.MonitorOverflow += rec.st.MonitorOverflow
		sum.SchedulePasses += rec.st.SchedulePasses
		sum.AllocAttempts += rec.st.AllocAttempts
		sum.AllocCacheHits += rec.st.AllocCacheHits
		sum.EventsProcessed += rec.st.EventsProcessed
	}
	return schedCounters(sum)
}

// tracedReplicator is Experiment.DatasetReplicator with a span around each
// call into a layer. It calls the same public functions in the same order,
// for the configuration pipelineExperiment builds (no fault plan, no
// sharding), and records each replication's stats in recs.
func tracedReplicator(e engine.Experiment, tr *tracer, batchSpan *int, recs []repRecord) engine.DatasetReplicator {
	return func(ctx context.Context, rep int, seed uint64) (*trace.Dataset, engine.Sample, error) {
		op := tr.newOp()
		root := tr.begin("engine.replication", op, *batchSpan)
		defer tr.end(root)
		specs, err := generate(e.Gen, seed, tr, op, root)
		if err != nil {
			return nil, nil, fmt.Errorf("replication %d: %w", rep, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		scfg := e.Sim
		if scfg.Monitor != nil {
			scfg.MonitorSeed = seed
		}
		specs, rejected := slurm.Feasible(scfg, specs)
		start := now()
		id := tr.begin("slurm.run", op, root)
		sim, err := slurm.NewSimulator(scfg)
		if err != nil {
			tr.end(id)
			return nil, nil, fmt.Errorf("replication %d: %w", rep, err)
		}
		results, st, err := sim.RunContext(ctx, specs)
		tr.end(id)
		recs[rep].runMs, recs[rep].st = ms(since(start)), st
		if err != nil {
			return nil, nil, fmt.Errorf("replication %d: %w", rep, err)
		}
		id = tr.begin("trace.build_dataset", op, root)
		ds := sim.BuildDataset(specs, results, e.Gen.DurationDays)
		tr.end(id)
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		id = tr.begin("engine.characterize", op, root)
		sm := engine.Characterize(ds, st)
		tr.end(id)
		sm["jobs_rejected"] = float64(len(rejected))
		return ds, sm, nil
	}
}

// layers reruns the latest traced round's simulations with the monitor off
// (slurm.run_nomon_ms) and derives the monitor's share of slurm.run_ms.
func (p *pipeline) layers(tr *tracer) (map[string]float64, error) {
	lt := tr.layerTimes()
	out := map[string]float64{
		"workload.generate_ms":   stats.Median(lt["workload.generate"]),
		"slurm.run_ms":           stats.Median(lt["slurm.run"]),
		"trace.build_dataset_ms": stats.Median(lt["trace.build_dataset"]),
		"trace.decode_ms":        stats.Median(lt["trace.decode"]),
		// engine.Characterize is the replication's pass over core's
		// column analyses; the queries' core.Characterize is not mixed in.
		"core.characterize_ms": stats.Median(lt["engine.characterize"]),
		"report.render_ms":     stats.Median(lt["report.render"]),
		"engine.busy_ms":       stats.Median(p.busy),
	}
	var busy, walls float64
	for i := range p.busy {
		busy, walls = busy+p.busy[i], walls+p.walls[i]
	}
	out["engine.parallel_eff"] = busy / (walls * float64(p.workers))

	nomon, saved := make([]float64, len(p.last)), make([]float64, len(p.last))
	scfg := p.exp.Sim
	scfg.Monitor = nil
	for i, rec := range p.last {
		specs, err := generate(p.exp.Gen, rec.seed, nil, -1, -1)
		if err != nil {
			return nil, err
		}
		specs, _ = slurm.Feasible(scfg, specs)
		runtime.GC()
		op := tr.newOp()
		start := now()
		id := tr.begin("slurm.run_nomon", op, -1)
		sim, err := slurm.NewSimulator(scfg)
		if err != nil {
			tr.end(id)
			return nil, err
		}
		_, st, err := sim.RunContext(context.Background(), specs)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if st.Completed != rec.st.Completed {
			return nil, fmt.Errorf("check: monitor-off rerun of replication %d completed %d jobs, not %d", i, st.Completed, rec.st.Completed)
		}
		nomon[i] = ms(since(start))
		saved[i] = rec.runMs - nomon[i]
	}
	out["slurm.run_nomon_ms"] = stats.Median(nomon)
	out["monitor.sample_ms"] = stats.Median(saved)
	return out, nil
}
