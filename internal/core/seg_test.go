package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// segStoreFrom streams ds into a fresh store under the given config.
func segStoreFrom(ds *trace.Dataset, cfg trace.SegConfig) *trace.SegStore {
	cfg.DurationDays = ds.DurationDays
	st := trace.NewSegStore(cfg)
	st.AppendDataset(ds)
	return st
}

// TestCharacterizeSegMatchesBatch pins the ISSUE 8 acceptance bar at the
// figure level: the segmented suite is value-identical to the batch suite
// for every (segment size × worker count) combination, including compacted
// stores.
func TestCharacterizeSegMatchesBatch(t *testing.T) {
	ds := equivDataset(t)
	want := Characterize(ds)
	for _, cfg := range []trace.SegConfig{
		{SegmentJobs: 1 << 20}, // tail only, never seals
		{SegmentJobs: 37},
		{SegmentJobs: 512},
		{SegmentJobs: 64, MaxSegments: 3}, // heavy compaction
	} {
		st := segStoreFrom(ds, cfg)
		for _, workers := range []int{1, 2, 7} {
			label := fmt.Sprintf("seg=%d/max=%d/workers=%d", cfg.SegmentJobs, cfg.MaxSegments, workers)
			diffReports(t, label, want, CharacterizeSeg(st.Snapshot(), workers))
		}
	}
}

// TestCharacterizeSegRandomSchedules extends the executable-spec pattern to
// randomized append/seal/compact interleavings: at arbitrary prefixes the
// streaming suite must match Characterize over the same prefix.
func TestCharacterizeSegRandomSchedules(t *testing.T) {
	full := equivDataset(t)
	for trial := 0; trial < 3; trial++ {
		rng := rand.New(rand.NewSource(int64(7 + trial)))
		st := trace.NewSegStore(trace.SegConfig{
			DurationDays: full.DurationDays,
			SegmentJobs:  1 + rng.Intn(300),
		})
		i := 0
		for i < len(full.Jobs) {
			batch := 1 + rng.Intn(len(full.Jobs)/3)
			if i+batch > len(full.Jobs) {
				batch = len(full.Jobs) - i
			}
			st.AppendBatch(full.Jobs[i : i+batch])
			i += batch
			switch rng.Intn(3) {
			case 0:
				st.SealTail()
			case 1:
				st.Compact()
			}
			prefix := &trace.Dataset{Jobs: full.Jobs[:i], DurationDays: full.DurationDays}
			label := fmt.Sprintf("trial=%d/jobs=%d", trial, i)
			diffReports(t, label, Characterize(prefix), CharacterizeSeg(st.Snapshot(), 1+rng.Intn(4)))
		}
	}
}
