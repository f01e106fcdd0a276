package core

import (
	"runtime"

	"repro/internal/trace"
)

// CharacterizeSeg runs the complete suite over a segmented-store snapshot.
// A snapshot's dataset-order vectors are the exact sequences
// Dataset.Columns projects, so every figure folds bit-identical results over
// it; what this entry point adds is WHERE the heavy lifting happens. The
// snapshot's per-segment sorted runs are the partial results: with more
// than one worker (0 means GOMAXPROCS) their materialization fans across
// the bounded pool first, then the figure tasks run. The runs merge in
// segment-index order inside each column, so the Report is bit-identical to
// Characterize over a Dataset holding the same job sequence, for any segment
// size, compaction history, or worker count. Runs materialized by an earlier
// query are cached in the segments, so a fresh snapshot's steady-state cost
// is the tail only. With a single worker nothing is fanned: the lazy path
// sorts exactly the columns a figure touches.
func CharacterizeSeg(v *trace.SegView, workers int) *Report {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if tasks := v.SortTasks(); workers > 1 && len(tasks) > 0 {
		runTasks(workers, tasks)
	}
	return characterizeCols(v.Cols, workers)
}
