package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Ingest sizing: a round feeds 25 pre-encoded 1000-job bodies into a fresh
// store, below simcloudd's 100k-job snapshot cadence, so the recovery at
// the round's end replays the whole WAL. A figures query follows every
// figuresEvery-th batch.
const (
	ingestJobs   = 25_000
	ingestBatch  = 1000
	figuresEvery = 5
)

// ingest is simcloudd's durable write path beside its read path, in-process:
// one op is one IngestBatch (what POST /v1/ingest runs), each followed by
// the /v1/summary read; every fifth batch, the /v1/figures query. A round
// ends with CloseNoSnapshot and a timed durable.Open on the same directory
// (crash recovery).
type ingest struct {
	dir    string
	jobs   int // per round, a multiple of ingestBatch
	cfg    trace.SegConfig
	opts   durable.Options
	bodies [][]byte
	ids    []string
	// head is the first round's final chain head; every round must end on
	// it, since every round logs the same batches.
	head durable.Chain
	// ingestOps are the traced batches' op ids, for pairing their layer
	// times into durable.log_ms.
	ingestOps []int
}

func newIngest(dir string, jobs int) *ingest { return &ingest{dir: dir, jobs: jobs} }

func (g *ingest) roundSeconds() float64 { return 1.9 }

// setup generates the population and pre-encodes it into ingest bodies.
// The store settings are simcloudd's flag defaults. Every round ingests the
// same bodies, so one population serves them all.
func (g *ingest) setup(seed uint64, tr *tracer) error {
	// Drop the last pass's bodies first, so repeated set-ups do not stack
	// up in the heap and in peak_rss_mb.
	g.bodies, g.ids = nil, nil
	factor := float64(g.jobs) / paperJobs
	gcfg := workload.ScaledConfig(factor)
	gcfg.TotalJobs = g.jobs
	gcfg.Seed = seed
	gcfg.TimeSeriesJobs = 0 // ingest bodies carry jobs only
	op := tr.newOp()
	id := tr.begin("workload.generate", op, -1)
	gen, err := workload.NewGenerator(gcfg)
	if err != nil {
		tr.end(id)
		return err
	}
	ds := gen.BuildDataset(gen.GenerateSpecs())
	tr.end(id)
	if len(ds.Jobs) != g.jobs || g.jobs%ingestBatch != 0 {
		return fmt.Errorf("generated %d jobs, want %d in whole batches of %d", len(ds.Jobs), g.jobs, ingestBatch)
	}
	for lo := 0; lo < len(ds.Jobs); lo += ingestBatch {
		part := &trace.Dataset{
			Jobs:         ds.Jobs[lo : lo+ingestBatch],
			Series:       map[int64]*trace.TimeSeries{},
			DurationDays: ds.DurationDays,
		}
		var buf bytes.Buffer
		if err := part.WriteJSON(&buf); err != nil {
			return err
		}
		g.bodies = append(g.bodies, buf.Bytes())
		g.ids = append(g.ids, fmt.Sprintf("batch-%05d", lo/ingestBatch))
	}
	g.cfg = trace.SegConfig{DurationDays: 125, SegmentJobs: trace.DefaultSegmentJobs, MaxSegments: 64}
	g.opts = durable.Options{
		Sync:         true,
		RotateBytes:  durable.DefaultRotateBytes,
		SnapshotJobs: 100_000,
		MaxJobs:      2_000_000,
	}
	return nil
}

func (g *ingest) run(tr *tracer, _ int, r *round) error {
	dir := filepath.Join(g.dir, "store")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := durable.Open(dir, g.cfg, g.opts)
	if err != nil {
		return err
	}
	defer func() { // error paths; the success path closes it and checks
		if st != nil {
			st.CloseNoSnapshot()
		}
	}()
	// The shadow store takes the traced appends timed on their own.
	shadow := trace.NewSegStore(g.cfg)

	for k, body := range g.bodies {
		op := tr.newOp()
		if tr != nil {
			// Attribution only, outside the timed region: decode and
			// append the body alone, as IngestBatch will.
			runtime.GC()
			var ds *trace.Dataset
			tr.call("trace.decode", op, -1, func() { ds, err = trace.ReadJSON(bytes.NewReader(body)) })
			if err != nil {
				return err
			}
			tr.call("trace.append", op, -1, func() { shadow.AppendDataset(ds) })
			g.ingestOps = append(g.ingestOps, op)
		}

		runtime.GC()
		r.attempted++
		start := now()
		id := tr.begin("durable.ingest", op, -1)
		out, dup, err := st.IngestBatch(g.ids[k], body)
		tr.end(id)
		total, _ := st.Seg().Len(), st.Seg().Segments() // the handler's response fields
		d := since(start)
		if err != nil {
			return err
		}
		if dup || out.Jobs != ingestBatch || total != (k+1)*ingestBatch {
			return fmt.Errorf("check: batch %s acked as duplicate=%v with %d jobs, %d stored", g.ids[k], dup, out.Jobs, total)
		}
		r.jobs += out.Jobs
		r.ops = append(r.ops, ms(d))

		start = now()
		sum := st.Seg().Summary()
		r.timed += d + since(start)
		if sum.Jobs != total {
			return fmt.Errorf("check: summary counts %d jobs, the store %d", sum.Jobs, total)
		}

		if (k+1)%figuresEvery == 0 {
			runtime.GC()
			r.attempted++
			start := now()
			if _, err := figuresQuery(st.Seg(), tr); err != nil {
				return err
			}
			qd := since(start)
			r.queries = append(r.queries, ms(qd))
			r.timed += qd
		}
	}

	// Crash recovery: what a restart must reproduce.
	wantLen, wantHead := st.Seg().Len(), st.ChainHead()
	wantFig, err := figuresQuery(st.Seg(), nil)
	if err != nil {
		return err
	}
	walBytes, segments := st.WALBytes(), st.Seg().Segments()
	// A restarted server does not hold the old store; drop it so the
	// recovery's heap, and the run's peak RSS, are the recovery's own.
	err = st.CloseNoSnapshot()
	st = nil
	if err != nil {
		return err
	}
	runtime.GC()
	r.attempted++
	start := now()
	rec, err := durable.Open(dir, g.cfg, g.opts)
	d := since(start)
	if err != nil {
		return err
	}
	defer func() { rec.CloseNoSnapshot() }()
	r.recovers = append(r.recovers, ms(d))
	if rec.Seg().Len() != wantLen || rec.ChainHead() != wantHead {
		return fmt.Errorf("check: recovered %d jobs, head %x; had %d, head %x", rec.Seg().Len(), rec.ChainHead(), wantLen, wantHead)
	}
	fig, err := figuresQuery(rec.Seg(), nil)
	if err != nil {
		return err
	}
	if !bytes.Equal(fig, wantFig) {
		return fmt.Errorf("check: figures differ after recovery")
	}
	var zero durable.Chain
	if g.head == zero {
		g.head = wantHead
	} else if wantHead != g.head {
		return fmt.Errorf("check: round ended on chain head %x, the first round on %x", wantHead, g.head)
	}
	if tr != nil {
		r.counters = map[string]float64{
			"durable.wal_bytes":         float64(walBytes),
			"durable.wal_bytes_per_job": float64(walBytes) / float64(wantLen),
			// Sync: true fsyncs each acked append once, so the count is
			// the acked batches; rotation and snapshot syncs are not in it.
			"durable.fsyncs": float64(len(g.bodies)),
			"trace.segments": float64(segments),
		}
	}
	return rec.CloseNoSnapshot()
}

// figuresQuery is the /v1/figures handler without HTTP and its timing
// header: snapshot, characterize, render.
func figuresQuery(seg *trace.SegStore, tr *tracer) ([]byte, error) {
	op := tr.newOp()
	root := tr.begin("query", op, -1)
	defer tr.end(root)
	var v *trace.SegView
	tr.call("trace.snapshot", op, root, func() { v = seg.Snapshot() })
	var rep *core.Report
	tr.call("core.characterize", op, root, func() { rep = core.CharacterizeSeg(v, 0) })
	var out bytes.Buffer
	var err error
	tr.call("report.render", op, root, func() { err = report.RenderReport(&out, rep) })
	return out.Bytes(), err
}

func (g *ingest) layers(tr *tracer) (map[string]float64, error) {
	lt := tr.layerTimes()
	dec, app, ing := tr.opTimes("trace.decode"), tr.opTimes("trace.append"), tr.opTimes("durable.ingest")
	logMs := make([]float64, 0, len(g.ingestOps))
	for _, op := range g.ingestOps {
		logMs = append(logMs, ing[op]-dec[op]-app[op])
	}
	return map[string]float64{
		"workload.generate_ms": stats.Median(lt["workload.generate"]),
		"trace.decode_ms":      stats.Median(lt["trace.decode"]),
		"trace.append_ms":      stats.Median(lt["trace.append"]),
		"trace.snapshot_ms":    stats.Median(lt["trace.snapshot"]),
		"core.characterize_ms": stats.Median(lt["core.characterize"]),
		"report.render_ms":     stats.Median(lt["report.render"]),
		"durable.ingest_ms":    stats.Median(lt["durable.ingest"]),
		"durable.log_ms":       stats.Median(logMs),
	}, nil
}
