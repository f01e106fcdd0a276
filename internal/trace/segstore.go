package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// This file holds the one columnar construction path: an append-only,
// segment-sharded columnar store whose projectLocked writes every column.
// Dataset.Columns runs it over a frozen population through an unsealed
// store; the always-on world appends to a long-lived store while figures
// are being answered.
//
// The core idea is that every logical column lives in ONE append-only
// backing array. Sealed segments are immutable [start,end) windows over
// those arrays, each carrying its own lazily cached sorted view and a
// mergeable summary; the mutable tail is just the region past the last
// seal. Because written elements are never mutated and Go's append only
// writes at or past len, a full-slice-expression view vals[:n:n] taken
// under the store lock is immutable forever — a Snapshot is therefore O(1)
// per column, and the Columns it returns is byte-identical to
// Dataset.Columns over the same job sequence, for ANY seal or compaction
// schedule:
//
//   - dataset-order vectors are the same float sequences, so every
//     sequential (Welford, sum) figure scan folds the identical values;
//   - sorted views are k-way merges of the per-segment sorted runs (plus a
//     sort of the small tail), and merging ascending runs of a multiset
//     yields the same ascending array as sorting the whole — without
//     re-sorting sealed data ever again;
//   - grouping indexes (per user, per interface) are appended by the same
//     code whatever the schedule.
//
// Per-segment SegSummary aggregates (stats.Streaming moments) answer live
// summary queries in O(segments); they merge in segment-index order, so
// they are deterministic for a given seal/compaction schedule but — unlike
// the figures — not invariant across schedules (float merge order differs).

// Column indices into SegStore's float backing arrays. The layout mirrors
// Columns' FloatColumn fields one-to-one.
const (
	sfRunMin = iota
	sfWaitSec
	sfWaitPct
	sfGPUHours
	sfHostCPU
	sfCPURunMin
	sfCPUWaitSec
	sfCPUWaitPct
	sfCPUHostCPU
	sfWaitSize0 // + size class; NumSizeClasses columns
)

// sfMean0/sfMax0 are the bases of the per-metric mean/max column blocks.
const (
	sfMean0  = sfWaitSize0 + NumSizeClasses
	sfMax0   = sfMean0 + int(metrics.NumMetrics)
	numSegFs = sfMax0 + int(metrics.NumMetrics)
)

// jobChunkSize is the slab size of the job arena. Chunks are allocated at
// full capacity and never grow, so *JobRecord pointers handed to column
// views stay valid across appends (a plain growing slice would move them).
const jobChunkSize = 1024

// DefaultSegmentJobs is the seal threshold when SegConfig.SegmentJobs is 0.
const DefaultSegmentJobs = 4096

// SegConfig parameterizes a SegStore.
type SegConfig struct {
	// DurationDays is the observation window recorded on snapshots.
	DurationDays float64
	// SegmentJobs seals the tail into an immutable segment every time it
	// reaches this many jobs; 0 means DefaultSegmentJobs, negative disables
	// automatic sealing (SealTail only).
	SegmentJobs int
	// MaxSegments, when positive, bounds the sealed-segment count: when a
	// seal pushes past it, adjacent segments are pairwise compacted
	// (halving the count), keeping query-time merge fan-in and segment
	// metadata O(MaxSegments).
	MaxSegments int
}

// SegSummary is one segment's (or the whole store's) mergeable digest:
// counts plus streaming moments of the headline columns. It merges via
// stats.Streaming's parallel-variance merge; merge in segment-index order
// for deterministic results.
type SegSummary struct {
	Jobs     int // all appended jobs, before any filter
	GPUJobs  int // analysis population (GPU, RunSec >= MinGPUJobRunSec)
	CPUJobs  int
	MultiGPU int

	GPUHours stats.Streaming // per-job GPU hours over the GPU population
	WaitSec  stats.Streaming
	RunMin   stats.Streaming
	// MeanUtil[m] aggregates the per-job mean of GPU metric m.
	MeanUtil [metrics.NumMetrics]stats.Streaming
}

// add folds one appended record into the digest.
func (s *SegSummary) add(j *JobRecord) {
	s.Jobs++
	if !j.IsGPU() {
		s.CPUJobs++
		return
	}
	if j.RunSec < MinGPUJobRunSec {
		return
	}
	s.GPUJobs++
	if j.NumGPUs >= 2 {
		s.MultiGPU++
	}
	s.GPUHours.Add(j.GPUHours())
	s.WaitSec.Add(j.WaitSec)
	s.RunMin.Add(j.RunSec / 60)
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		s.MeanUtil[m].Add(j.GPU[m].Mean)
	}
}

// Merge folds o after s. Call in segment-index order.
func (s *SegSummary) Merge(o *SegSummary) {
	s.Jobs += o.Jobs
	s.GPUJobs += o.GPUJobs
	s.CPUJobs += o.CPUJobs
	s.MultiGPU += o.MultiGPU
	s.GPUHours.Merge(&o.GPUHours)
	s.WaitSec.Merge(&o.WaitSec)
	s.RunMin.Merge(&o.RunMin)
	for m := range s.MeanUtil {
		s.MeanUtil[m].Merge(&o.MeanUtil[m])
	}
}

// segment is one immutable sealed window of the store. Its FloatColumns
// wrap full-slice-expression views of the backing arrays, so their lazily
// cached sorted runs are shared by every snapshot and survive compaction
// (a compacted segment merges its children's runs instead of re-sorting).
type segment struct {
	startJob, endJob int // [start,end) in appended-job order
	off              [numSegFs]int
	cols             [numSegFs]*FloatColumn
	agg              SegSummary
}

// SegStore is the append-only segmented columnar store. The zero value is
// not usable; construct with NewSegStore. All methods are safe for
// concurrent use; reads returned by Snapshot are immutable and may be
// consumed without further locking, concurrently with appends.
type SegStore struct {
	noCopy noCopy

	mu  sync.Mutex
	cfg SegConfig

	// Append-only backing arrays (the whole-store columns). Elements below
	// the current length are never rewritten. All guarded by mu, like
	// every mutable field below: unlocked helpers carry the *Locked name
	// suffix and run only with mu held (enforced by simlint's lockguard).
	f       [numSegFs][]float64 // guarded by mu
	numGPUs []int               // guarded by mu
	gpu     []*JobRecord        // guarded by mu
	multi   []*JobRecord        // guarded by mu
	cpu     []*JobRecord        // guarded by mu

	byUser  map[int][]int32        // guarded by mu
	byIface [NumInterfaces][]int32 // guarded by mu

	// totalGPUHours accumulates in append order, so every schedule folds
	// the same float sequence and reports bit-identical totals.
	totalGPUHours float64

	series map[int64]*TimeSeries     // guarded by mu
	staged map[int64]stagedTelemetry // guarded by mu

	chunks [][]JobRecord // guarded by mu
	nJobs  int           // guarded by mu

	sealed  []*segment    // guarded by mu
	tailOff [numSegFs]int // guarded by mu
	tailJob int           // guarded by mu
	tailAgg SegSummary    // guarded by mu

	// sealedMerge[c] caches the merge of every sealed segment's sorted run
	// for column c, as a lazily-sorted view over the sealed prefix of the
	// backing array. It is replaced only when the sealed set's CONTENT
	// changes (a seal); compaction reshapes the segments but not the
	// multiset, so the cache survives it. Queries therefore pay one tail
	// sort plus a single two-way merge per column, not a k-way merge —
	// the merge cascade that keeps interleaved append+query O(tail)-ish.
	sealedMerge [numSegFs]*FloatColumn // guarded by mu

	gen  uint64   // guarded by mu
	snap *SegView // guarded by mu
}

// stagedTelemetry is monitoring-epilog output parked until the matching
// scheduler-side record arrives (the §II join on job ID).
type stagedTelemetry struct {
	perGPU []metrics.MetricSummaries
	series *TimeSeries
}

// SegView is an immutable snapshot of the store: a fully functional Columns
// over everything appended before the snapshot, plus the segment geometry
// behind it. Safe for concurrent use and never invalidated — a view taken
// before an append simply does not see it.
type SegView struct {
	// Cols is the stitched columnar projection; every Columns consumer
	// (core figures, engine samples) works on it unchanged.
	Cols *Columns
	// NJobs is the appended-job count covered by the view.
	NJobs int
	// Segments is the sealed-segment count at snapshot time; TailJobs is
	// the not-yet-sealed remainder.
	Segments int
	TailJobs int
	// Gen increases with every mutation; equal Gens mean identical views.
	Gen uint64

	sortTasks []func()
}

// NewSegStore creates an empty store.
func NewSegStore(cfg SegConfig) *SegStore {
	if cfg.SegmentJobs == 0 {
		cfg.SegmentJobs = DefaultSegmentJobs
	}
	return &SegStore{
		cfg:    cfg,
		byUser: make(map[int][]int32),
		series: make(map[int64]*TimeSeries),
		staged: make(map[int64]stagedTelemetry),
	}
}

// Append adds one job record, the streaming counterpart of Dataset.Add: the
// record is projected into every column immediately, so the cost is O(1)
// amortized and no later query ever rebuilds. If GPU telemetry for the job
// was staged via StageTelemetry, it is joined here (PerGPU adopted, series
// attached) before projection.
func (st *SegStore) Append(j JobRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.appendLocked(j)
	st.maybeSealLocked()
}

// AppendBatch adds records in order, sealing as thresholds are crossed.
func (st *SegStore) AppendBatch(jobs []JobRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range jobs {
		st.appendLocked(jobs[i])
		st.maybeSealLocked()
	}
}

// AppendDataset streams a whole dataset's jobs and series into the store.
func (st *SegStore) AppendDataset(ds *Dataset) {
	// Unbounded append cannot fail; the error is structurally impossible.
	if err := st.AppendDatasetMax(ds, 0); err != nil {
		panic(err)
	}
}

// CapacityError reports an ingest batch rejected because it would push the
// store past a job bound. The admission check and the append happen under
// one lock acquisition, so concurrent batches cannot both pass the check
// and jointly overshoot the bound.
type CapacityError struct {
	Stored, Batch, Max int
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("trace: store at %d jobs, batch of %d exceeds bound %d",
		e.Stored, e.Batch, e.Max)
}

// AppendDatasetMax is AppendDataset with an atomic admission bound: when
// maxJobs is positive and the batch would push the stored-job count past it,
// nothing is appended and a *CapacityError is returned. Reserve-then-append
// is a single critical section — the check cannot race another batch's
// append (the -max-jobs TOCTOU simcloudd shipped with).
func (st *SegStore) AppendDatasetMax(ds *Dataset, maxJobs int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if maxJobs > 0 && st.nJobs+len(ds.Jobs) > maxJobs {
		return &CapacityError{Stored: st.nJobs, Batch: len(ds.Jobs), Max: maxJobs}
	}
	for i := range ds.Jobs {
		st.appendLocked(ds.Jobs[i])
		st.maybeSealLocked()
	}
	for _, id := range sortedSeriesKeys(ds.Series) {
		st.series[id] = ds.Series[id]
	}
	st.gen++
	st.snap = nil
	return nil
}

// AttachSeries stores the detailed time series of a job.
func (st *SegStore) AttachSeries(ts *TimeSeries) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.series[ts.JobID] = ts
	st.gen++
	st.snap = nil
}

// StageTelemetry parks monitoring-epilog output (per-GPU digests and the
// optional retained series) for a job whose scheduler-side record has not
// arrived yet. The next Append of that job ID joins it: a record with no
// PerGPU adopts the staged digests (recomputing the averaged GPU summary),
// and the staged series is attached. This is how the monitoring pipeline
// streams §II joins into the store as epilogs fire.
func (st *SegStore) StageTelemetry(jobID int64, perGPU []metrics.MetricSummaries, ts *TimeSeries) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.staged[jobID] = stagedTelemetry{perGPU: perGPU, series: ts}
}

// StagedJobs returns the number of telemetry records awaiting their join.
func (st *SegStore) StagedJobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.staged)
}

// appendLocked is the store side of an append: the telemetry join, the
// arena copy that keeps the record's address stable, the bookkeeping, and
// the tail digest. The columns themselves are written by projectLocked.
func (st *SegStore) appendLocked(j JobRecord) {
	if tel, ok := st.staged[j.JobID]; ok {
		delete(st.staged, j.JobID)
		if j.IsGPU() && j.PerGPU == nil && tel.perGPU != nil {
			j.PerGPU = tel.perGPU
			j.FinalizeGPUSummary()
		}
		if tel.series != nil {
			st.series[j.JobID] = tel.series
		}
	}

	// Arena-allocate the record so the pointer survives future appends.
	if n := len(st.chunks); n == 0 || len(st.chunks[n-1]) == cap(st.chunks[n-1]) {
		st.chunks = append(st.chunks, make([]JobRecord, 0, jobChunkSize))
	}
	chunk := &st.chunks[len(st.chunks)-1]
	*chunk = append(*chunk, j)
	jp := &(*chunk)[len(*chunk)-1]

	st.nJobs++
	st.gen++
	st.snap = nil
	st.projectLocked(jp)
	st.tailAgg.add(jp)
}

// projectLocked appends *jp to every column and grouping index it belongs
// to. It is the only code that writes column backing arrays, so a store
// snapshot and Dataset.Columns are the same projection by construction.
// The columns keep jp itself, so it must stay valid for the store's life.
func (st *SegStore) projectLocked(jp *JobRecord) {
	if !jp.IsGPU() {
		st.cpu = append(st.cpu, jp)
		st.f[sfCPURunMin] = append(st.f[sfCPURunMin], jp.RunSec/60)
		st.f[sfCPUWaitSec] = append(st.f[sfCPUWaitSec], jp.WaitSec)
		st.f[sfCPUWaitPct] = append(st.f[sfCPUWaitPct], jp.WaitFraction())
		st.f[sfCPUHostCPU] = append(st.f[sfCPUHostCPU], jp.HostCPU.Mean)
		return
	}
	if jp.RunSec < MinGPUJobRunSec {
		return
	}
	idx := int32(len(st.gpu))
	st.gpu = append(st.gpu, jp)
	st.numGPUs = append(st.numGPUs, jp.NumGPUs)
	st.f[sfRunMin] = append(st.f[sfRunMin], jp.RunSec/60)
	st.f[sfWaitSec] = append(st.f[sfWaitSec], jp.WaitSec)
	st.f[sfWaitPct] = append(st.f[sfWaitPct], jp.WaitFraction())
	h := jp.GPUHours()
	st.f[sfGPUHours] = append(st.f[sfGPUHours], h)
	st.totalGPUHours += h
	st.f[sfHostCPU] = append(st.f[sfHostCPU], jp.HostCPU.Mean)
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		st.f[sfMean0+int(m)] = append(st.f[sfMean0+int(m)], jp.GPU[m].Mean)
		st.f[sfMax0+int(m)] = append(st.f[sfMax0+int(m)], jp.GPU[m].Max)
	}
	st.f[sfWaitSize0+SizeClass(jp.NumGPUs)] = append(st.f[sfWaitSize0+SizeClass(jp.NumGPUs)], jp.WaitSec)
	if jp.NumGPUs >= 2 {
		st.multi = append(st.multi, jp)
	}
	st.byUser[jp.User] = append(st.byUser[jp.User], idx)
	if jp.Interface >= 0 && jp.Interface < NumInterfaces {
		st.byIface[jp.Interface] = append(st.byIface[jp.Interface], idx)
	}
}

// presizeLocked sizes the empty population and column arrays for jobs in
// one counting pass, so projecting a whole dataset appends without
// regrowing (regrowth cost ~3.5x the bytes of a 100k-job build).
func (st *SegStore) presizeLocked(jobs []JobRecord) {
	var nGPU, nCPU int
	var nSize [NumSizeClasses]int
	for i := range jobs {
		switch j := &jobs[i]; {
		case !j.IsGPU():
			nCPU++
		case j.RunSec >= MinGPUJobRunSec:
			nGPU++
			nSize[SizeClass(j.NumGPUs)]++
		}
	}
	st.gpu = make([]*JobRecord, 0, nGPU)
	st.numGPUs = make([]int, 0, nGPU)
	st.cpu = make([]*JobRecord, 0, nCPU)
	for c := range st.f {
		n := nGPU
		switch {
		case c >= sfCPURunMin && c <= sfCPUHostCPU:
			n = nCPU
		case c >= sfWaitSize0 && c < sfMean0:
			n = nSize[c-sfWaitSize0]
		}
		st.f[c] = make([]float64, 0, n)
	}
}

// datasetColumns projects d through an unsealed store. Records are
// projected in place, not copied into the arena, so the returned
// Columns.GPU and .CPU point into d.Jobs.
func datasetColumns(d *Dataset) *Columns {
	st := NewSegStore(SegConfig{DurationDays: d.DurationDays, SegmentJobs: -1})
	st.mu.Lock()
	st.presizeLocked(d.Jobs)
	for i := range d.Jobs {
		st.projectLocked(&d.Jobs[i])
	}
	st.series = d.Series // only read: the store is dropped after one snapshot
	st.mu.Unlock()
	return st.Snapshot().Cols
}

// maybeSealLocked seals when the tail crosses the configured size.
func (st *SegStore) maybeSealLocked() {
	if st.cfg.SegmentJobs > 0 && st.nJobs-st.tailJob >= st.cfg.SegmentJobs {
		st.sealLocked()
	}
}

// SealTail seals the current tail into an immutable segment (a no-op for an
// empty tail). Sealing never changes query results — it only freezes the
// region so its sorted runs are cached once and reused by every later
// snapshot instead of being re-sorted.
func (st *SegStore) SealTail() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sealLocked()
}

func (st *SegStore) sealLocked() {
	if st.nJobs == st.tailJob {
		return
	}
	st.sealSegmentLocked(st.tailAgg)
	if st.cfg.MaxSegments > 0 && len(st.sealed) > st.cfg.MaxSegments {
		st.compactLocked()
	}
}

// sealSegmentLocked freezes the tail into a segment carrying agg as its
// digest. The live path passes the accumulated tail digest; snapshot restore
// passes the recorded one, which may be a Merge-shaped aggregate from a
// compaction the original store performed (re-folding the jobs would differ
// in final ulps — the recorded floats are the ground truth).
func (st *SegStore) sealSegmentLocked(agg SegSummary) {
	seg := &segment{startJob: st.tailJob, endJob: st.nJobs, agg: agg}
	for c := 0; c < numSegFs; c++ {
		seg.off[c] = st.tailOff[c]
		end := len(st.f[c])
		seg.cols[c] = NewFloatColumn(st.f[c][st.tailOff[c]:end:end])
		st.tailOff[c] = end
	}
	st.tailJob = st.nJobs
	st.tailAgg = SegSummary{}
	st.sealed = append(st.sealed, seg)
	// Refresh the merge cascade: fold the new segment's run into the
	// previous sealed-prefix merge (one two-way merge on first use), rather
	// than discarding the cascade and re-merging every segment.
	for c := 0; c < numSegFs; c++ {
		prev, next := st.sealedMerge[c], seg.cols[c]
		end := st.tailOff[c]
		vals := st.f[c][:end:end]
		if prev == nil {
			st.sealedMerge[c] = next
		} else {
			st.sealedMerge[c] = newMergeSortedColumn(vals, func() [][]float64 {
				return [][]float64{prev.Sorted(), next.Sorted()}
			})
		}
	}
}

// Compact pairwise-merges adjacent sealed segments, halving the segment
// count: merge fan-in and per-segment metadata stay bounded while sealed
// sorted runs are merged, not re-sorted. Figure results are unaffected
// (the property test pins this); SegSummary moments change merge
// association and so may differ in final ulps from an unsealed run.
func (st *SegStore) Compact() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.compactLocked()
}

func (st *SegStore) compactLocked() {
	if len(st.sealed) < 2 {
		return
	}
	merged := make([]*segment, 0, (len(st.sealed)+1)/2)
	for i := 0; i+1 < len(st.sealed); i += 2 {
		merged = append(merged, st.mergeSegmentsLocked(st.sealed[i], st.sealed[i+1]))
	}
	if len(st.sealed)%2 == 1 {
		merged = append(merged, st.sealed[len(st.sealed)-1])
	}
	st.sealed = merged
	st.gen++
	st.snap = nil
}

// mergeSegmentsLocked combines two adjacent segments into one. Column
// views are re-cut from the shared backing arrays (the windows are
// contiguous); the sorted view stays lazy — it merges the children's runs
// on first use, so sealed data is sorted at most once no matter how many
// compactions roll over it, and never if nobody asks. Called with mu held
// (it reads the backing arrays), hence the Locked suffix.
func (st *SegStore) mergeSegmentsLocked(a, b *segment) *segment {
	out := &segment{startJob: a.startJob, endJob: b.endJob, agg: a.agg}
	out.agg.Merge(&b.agg)
	for c := 0; c < numSegFs; c++ {
		end := b.off[c] + b.cols[c].N()
		vals := st.f[c][a.off[c]:end:end]
		out.off[c] = a.off[c]
		ac, bc := a.cols[c], b.cols[c]
		out.cols[c] = newMergeSortedColumn(vals, func() [][]float64 {
			return [][]float64{ac.Sorted(), bc.Sorted()}
		})
	}
	return out
}

// Summary merges the per-segment digests (in segment-index order) with the
// tail digest: the O(segments) live answer for dashboards. Deterministic
// for a given seal/compaction schedule.
func (st *SegStore) Summary() SegSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out SegSummary
	for _, seg := range st.sealed {
		out.Merge(&seg.agg)
	}
	out.Merge(&st.tailAgg)
	return out
}

// Len returns the number of appended jobs.
func (st *SegStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nJobs
}

// Segments returns the sealed-segment count.
func (st *SegStore) Segments() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sealed)
}

// TailJobs returns the number of jobs appended since the last seal — the
// mutable tail the backpressure bound watches. O(1); no view is built.
func (st *SegStore) TailJobs() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if n := len(st.sealed); n > 0 {
		return st.nJobs - st.sealed[n-1].endJob
	}
	return st.nJobs
}

// Snapshot returns an immutable view of everything appended so far. The
// snapshot is memoized per generation: queries between appends share one
// view (and therefore one set of merged sorted runs). Building a fresh view
// is O(users + series + columns) — no job data is copied, no sort runs.
func (st *SegStore) Snapshot() *SegView {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.snap != nil {
		return st.snap
	}
	c := &Columns{
		ByUser:        make(map[int][]int32, len(st.byUser)),
		DurationDays:  st.cfg.DurationDays,
		TotalGPUHours: st.totalGPUHours,
	}
	v := &SegView{
		Cols:     c,
		NJobs:    st.nJobs,
		Segments: len(st.sealed),
		TailJobs: st.nJobs - st.tailJob,
		Gen:      st.gen,
	}

	// Full-slice-expression views: immutable even as the store appends.
	c.GPU = st.gpu[:len(st.gpu):len(st.gpu)]
	c.Multi = st.multi[:len(st.multi):len(st.multi)]
	c.CPU = st.cpu[:len(st.cpu):len(st.cpu)]
	c.NumGPUs = st.numGPUs[:len(st.numGPUs):len(st.numGPUs)]

	segs := st.sealed[:len(st.sealed):len(st.sealed)]
	col := func(id int) *FloatColumn {
		n := len(st.f[id])
		vals := st.f[id][:n:n]
		tail := st.f[id][st.tailOff[id]:n:n]
		sealed := st.sealedMerge[id]
		if sealed == nil {
			// Nothing sealed: the snapshot column is a plain sort-on-demand
			// view of the tail (== the whole store).
			return NewFloatColumn(vals)
		}
		fc := newMergeSortedColumn(vals, func() [][]float64 {
			if len(tail) == 0 {
				return [][]float64{sealed.Sorted()}
			}
			return [][]float64{sealed.Sorted(), sortDropNaN(tail, nil)}
		})
		for _, seg := range segs {
			seg := seg
			v.sortTasks = append(v.sortTasks, func() { seg.cols[id].Sorted() })
		}
		return fc
	}
	c.RunMin = col(sfRunMin)
	c.WaitSec = col(sfWaitSec)
	c.WaitPct = col(sfWaitPct)
	c.GPUHours = col(sfGPUHours)
	c.HostCPU = col(sfHostCPU)
	c.CPURunMin = col(sfCPURunMin)
	c.CPUWaitSec = col(sfCPUWaitSec)
	c.CPUWaitPct = col(sfCPUWaitPct)
	c.CPUHostCPU = col(sfCPUHostCPU)
	for s := 0; s < NumSizeClasses; s++ {
		c.WaitBySize[s] = col(sfWaitSize0 + s)
	}
	for m := 0; m < int(metrics.NumMetrics); m++ {
		c.Mean[m] = col(sfMean0 + m)
		c.Max[m] = col(sfMax0 + m)
	}

	c.Users = make([]int, 0, len(st.byUser))
	for u, idx := range st.byUser {
		c.Users = append(c.Users, u)
		c.ByUser[u] = idx[:len(idx):len(idx)]
	}
	sort.Ints(c.Users)
	for i := range st.byIface {
		c.ByIface[i] = st.byIface[i][:len(st.byIface[i]):len(st.byIface[i])]
	}

	c.SeriesIDs = sortedSeriesKeys(st.series)
	c.series = make(map[int64]*TimeSeries, len(st.series))
	for _, id := range c.SeriesIDs {
		c.series[id] = st.series[id]
	}

	st.snap = v
	return v
}

// SortTasks returns one closure per (sealed segment, column) pair that
// materializes that segment's cached sorted run. They are independent and
// idempotent, so a caller with a worker pool can fan them out before the
// snapshot's merged views are first consumed; running none is equally
// correct, just serial. The merge itself always folds in segment order.
func (v *SegView) SortTasks() []func() { return v.sortTasks }

// Validate checks every appended record and the series linkage, the
// streaming counterpart of Dataset.Validate.
func (st *SegStore) Validate() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make(map[int64]bool, st.nJobs)
	for _, chunk := range st.chunks {
		for i := range chunk {
			j := &chunk[i]
			if err := j.Validate(); err != nil {
				return err
			}
			if ids[j.JobID] {
				return fmt.Errorf("trace: duplicate job id %d", j.JobID)
			}
			ids[j.JobID] = true
		}
	}
	for id := range st.series {
		if !ids[id] {
			return fmt.Errorf("trace: time series for unknown job %d", id)
		}
	}
	return nil
}

// sortDropNaN returns vals ascending with NaNs dropped — via sortFn when
// one is supplied, else by sorting a fresh copy (the FloatColumn.Sorted
// contract).
func sortDropNaN(vals []float64, sortFn func() []float64) []float64 {
	if sortFn != nil {
		return sortFn()
	}
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return s
}

// mergeSortedRuns k-way merges ascending runs into one ascending slice by
// rounds of pairwise merges in run order — O(n log k) with sequential
// memory traffic, and the output is the same ascending multiset a full
// sort would produce. sizeHint presizes the result (NaN-free runs may sum
// below it).
func mergeSortedRuns(runs [][]float64, sizeHint int) []float64 {
	live := make([][]float64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return []float64{}
	case 1:
		return live[0]
	}
	for len(live) > 1 {
		next := live[:0]
		for i := 0; i+1 < len(live); i += 2 {
			next = append(next, mergeTwo(live[i], live[i+1], sizeHint))
		}
		if len(live)%2 == 1 {
			next = append(next, live[len(live)-1])
		}
		live = next
	}
	return live[0]
}

// mergeTwo merges two ascending runs. capHint bounds the allocation for the
// final round; intermediate rounds allocate exactly len(a)+len(b).
func mergeTwo(a, b []float64, capHint int) []float64 {
	n := len(a) + len(b)
	if capHint < n {
		capHint = n
	}
	out := make([]float64, 0, n)
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		if a[i] <= b[k] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[k])
			k++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[k:]...)
	return out
}

// sortedSeriesKeys returns m's keys ascending.
func sortedSeriesKeys(m map[int64]*TimeSeries) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}
