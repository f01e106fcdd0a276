package core

import (
	"sort"

	"repro/internal/lifecycle"
	"repro/internal/stats"
	"repro/internal/trace"
)

// LifecycleResult is Figs. 15 and 16: the life-cycle breakdown of jobs and
// GPU hours, category medians of run time, and per-category utilization box
// plots.
type LifecycleResult struct {
	// JobShare and HourShare index by trace.Category (Fig. 15a/b).
	JobShare  [trace.NumCategories]float64
	HourShare [trace.NumCategories]float64
	// MedianRunMin per category (§VI: mature 36 min, exploratory 62 min).
	MedianRunMin [trace.NumCategories]float64
	// Boxes[c][k] is the Fig. 16 box plot of category c for metric k
	// (0 = SM, 1 = memory bandwidth, 2 = memory size).
	Boxes [trace.NumCategories][3]stats.BoxStats
	Total int
}

// Lifecycle computes Figs. 15–16 over the columnar GPU population.
func Lifecycle(c *trace.Columns) LifecycleResult {
	jobs := c.GPU
	b := lifecycle.Account(jobs)
	groups := lifecycle.GroupByCategory(jobs)
	var r LifecycleResult
	r.Total = b.Total
	for cat := trace.Category(0); cat < trace.NumCategories; cat++ {
		r.JobShare[cat] = b.JobShare(cat)
		r.HourShare[cat] = b.HourShare(cat)
		r.MedianRunMin[cat] = stats.Median(trace.RunMinutes(groups[cat]))
		for mi, m := range multiGPUMetrics {
			r.Boxes[cat][mi] = stats.Box(trace.MeanValues(groups[cat], m))
		}
	}
	return r
}

// UserMixRow is one user's life-cycle composition (one x-position of
// Fig. 17).
type UserMixRow struct {
	User     int
	JobFrac  [trace.NumCategories]float64 // Fig. 17a: share of the user's jobs
	HourFrac [trace.NumCategories]float64 // Fig. 17b: share of the user's GPU hours
	Jobs     int
	GPUHours float64
}

// UserMixResult is Fig. 17: per-user life-cycle mixes sorted by mature
// share, plus the quoted aggregate fractions.
type UserMixResult struct {
	// ByJobs is sorted ascending by mature job share (Fig. 17a's x-axis);
	// ByHours by mature hour share (Fig. 17b).
	ByJobs  []UserMixRow
	ByHours []UserMixRow
	// UsersUnder40PctMatureJobs: ">50 % of the users have <40 % mature jobs".
	UsersUnder40PctMatureJobs float64
	// UsersOver60PctNonMatureHours: "for more than 25 % of the users,
	// exploratory, development, and IDE jobs constitute over 60 % of all of
	// their GPU hours".
	UsersOver60PctNonMatureHours float64
}

// UserMix computes Fig. 17 from the per-user row index.
func UserMix(c *trace.Columns) UserMixResult {
	hourVals := c.GPUHours.Values()
	rows := make([]UserMixRow, 0, len(c.Users))
	for _, u := range c.Users {
		idx := c.ByUser[u]
		row := UserMixRow{User: u, Jobs: len(idx)}
		var hours [trace.NumCategories]float64
		var counts [trace.NumCategories]float64
		for _, k := range idx {
			cat := lifecycle.Classify(c.GPU[k])
			counts[cat]++
			h := hourVals[k]
			hours[cat] += h
			row.GPUHours += h
		}
		for cat := trace.Category(0); cat < trace.NumCategories; cat++ {
			row.JobFrac[cat] = counts[cat] / float64(row.Jobs)
			if row.GPUHours > 0 {
				row.HourFrac[cat] = hours[cat] / row.GPUHours
			}
		}
		rows = append(rows, row)
	}
	return finishUserMix(rows)
}

// finishUserMix sorts the per-user rows into the two Fig. 17 orderings and
// derives the aggregate fractions; shared by the naive and columnar paths.
func finishUserMix(rows []UserMixRow) UserMixResult {
	var r UserMixResult
	r.ByJobs = append([]UserMixRow(nil), rows...)
	sort.Slice(r.ByJobs, func(a, b int) bool {
		if r.ByJobs[a].JobFrac[trace.Mature] != r.ByJobs[b].JobFrac[trace.Mature] {
			return r.ByJobs[a].JobFrac[trace.Mature] < r.ByJobs[b].JobFrac[trace.Mature]
		}
		return r.ByJobs[a].User < r.ByJobs[b].User
	})
	r.ByHours = append([]UserMixRow(nil), rows...)
	sort.Slice(r.ByHours, func(a, b int) bool {
		if r.ByHours[a].HourFrac[trace.Mature] != r.ByHours[b].HourFrac[trace.Mature] {
			return r.ByHours[a].HourFrac[trace.Mature] < r.ByHours[b].HourFrac[trace.Mature]
		}
		return r.ByHours[a].User < r.ByHours[b].User
	})
	if len(rows) > 0 {
		var under40, over60 float64
		for _, row := range rows {
			if row.JobFrac[trace.Mature] < 0.40 {
				under40++
			}
			if 1-row.HourFrac[trace.Mature] > 0.60 {
				over60++
			}
		}
		n := float64(len(rows))
		r.UsersUnder40PctMatureJobs = under40 / n
		r.UsersOver60PctNonMatureHours = over60 / n
	}
	return r
}
