package core

import (
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// UserStats aggregates one user's GPU jobs: the per-user quantities behind
// Figs. 10–12 and 17.
type UserStats struct {
	User     int
	Jobs     int
	GPUHours float64

	AvgRunMin float64
	RunCoVPct float64

	AvgSM, AvgMem, AvgMemSize float64
	CoVSM, CoVMem, CoVMemSize float64
}

// AggregateUsers computes per-user statistics by gathering the run-time
// and utilization columns through the per-user row index, reusing scratch
// vectors across users.
func AggregateUsers(c *trace.Columns) []UserStats {
	out := make([]UserStats, 0, len(c.Users))
	hourVals := c.GPUHours.Values()
	runVals := c.RunMin.Values()
	smVals := c.Mean[metrics.SMUtil].Values()
	memVals := c.Mean[metrics.MemUtil].Values()
	mszVals := c.Mean[metrics.MemSize].Values()
	var runs, sm, mem, msz []float64
	for _, u := range c.Users {
		idx := c.ByUser[u]
		st := UserStats{User: u, Jobs: len(idx)}
		runs, sm, mem, msz = runs[:0], sm[:0], mem[:0], msz[:0]
		for _, k := range idx {
			st.GPUHours += hourVals[k]
			runs = append(runs, runVals[k])
			sm = append(sm, smVals[k])
			mem = append(mem, memVals[k])
			msz = append(msz, mszVals[k])
		}
		st.AvgRunMin = stats.Mean(runs)
		st.RunCoVPct = stats.CoV(runs)
		st.AvgSM, st.AvgMem, st.AvgMemSize = stats.Mean(sm), stats.Mean(mem), stats.Mean(msz)
		st.CoVSM, st.CoVMem, st.CoVMemSize = stats.CoV(sm), stats.CoV(mem), stats.CoV(msz)
		out = append(out, st)
	}
	return out
}

// UserAverageResult is Fig. 10: CDFs across users of average job run time
// and average utilization.
type UserAverageResult struct {
	AvgRunMin  CDFStat
	AvgSM      CDFStat
	AvgMem     CDFStat
	AvgMemSize CDFStat
}

// UserAverages computes Fig. 10.
func UserAverages(users []UserStats) UserAverageResult {
	var run, sm, mem, msz []float64
	for _, u := range users {
		run = append(run, u.AvgRunMin)
		sm = append(sm, u.AvgSM)
		mem = append(mem, u.AvgMem)
		msz = append(msz, u.AvgMemSize)
	}
	return UserAverageResult{
		AvgRunMin:  NewCDFStat(run, curvePoints),
		AvgSM:      NewCDFStat(sm, curvePoints),
		AvgMem:     NewCDFStat(mem, curvePoints),
		AvgMemSize: NewCDFStat(msz, curvePoints),
	}
}

// UserVariabilityResult is Fig. 11: CDFs across users of the CoV of run
// times and utilization over each user's own jobs.
type UserVariabilityResult struct {
	RunCoV     CDFStat
	SMCoV      CDFStat
	MemCoV     CDFStat
	MemSizeCoV CDFStat
}

// UserVariability computes Fig. 11. Users with fewer than two jobs carry no
// dispersion information and are skipped.
func UserVariability(users []UserStats) UserVariabilityResult {
	var run, sm, mem, msz []float64
	for _, u := range users {
		if u.Jobs < 2 {
			continue
		}
		appendValid(&run, u.RunCoVPct)
		appendValid(&sm, u.CoVSM)
		appendValid(&mem, u.CoVMem)
		appendValid(&msz, u.CoVMemSize)
	}
	return UserVariabilityResult{
		RunCoV:     NewCDFStat(run, curvePoints),
		SMCoV:      NewCDFStat(sm, curvePoints),
		MemCoV:     NewCDFStat(mem, curvePoints),
		MemSizeCoV: NewCDFStat(msz, curvePoints),
	}
}

func appendValid(dst *[]float64, v float64) {
	if !isNaN(v) {
		*dst = append(*dst, v)
	}
}

// TrendPair is one Fig. 12 correlation: a user-activity measure against a
// user-behavior measure.
type TrendPair struct {
	Activity string // "jobs" or "gpu_hours"
	Behavior string // e.g. "avg_sm"
	Result   stats.SpearmanResult
}

// UserTrendResult is Fig. 12: the Spearman correlation grid.
type UserTrendResult struct {
	Pairs []TrendPair
}

// Get returns the correlation for (activity, behavior), or a zero result.
func (r UserTrendResult) Get(activity, behavior string) stats.SpearmanResult {
	for _, p := range r.Pairs {
		if p.Activity == activity && p.Behavior == behavior {
			return p.Result
		}
	}
	return stats.SpearmanResult{}
}

// UserTrends computes Fig. 12: correlations of user activity (job count,
// GPU hours) with average behavior and its variance.
func UserTrends(users []UserStats) UserTrendResult {
	var jobs, hours []float64
	behaviors := map[string][]float64{}
	names := []string{"avg_run", "avg_sm", "avg_mem", "cov_run", "cov_sm", "cov_mem"}
	for _, u := range users {
		if u.Jobs < 2 {
			continue
		}
		jobs = append(jobs, float64(u.Jobs))
		hours = append(hours, u.GPUHours)
		behaviors["avg_run"] = append(behaviors["avg_run"], u.AvgRunMin)
		behaviors["avg_sm"] = append(behaviors["avg_sm"], u.AvgSM)
		behaviors["avg_mem"] = append(behaviors["avg_mem"], u.AvgMem)
		behaviors["cov_run"] = append(behaviors["cov_run"], nanToZero(u.RunCoVPct))
		behaviors["cov_sm"] = append(behaviors["cov_sm"], nanToZero(u.CoVSM))
		behaviors["cov_mem"] = append(behaviors["cov_mem"], nanToZero(u.CoVMem))
	}
	var r UserTrendResult
	for _, name := range names {
		r.Pairs = append(r.Pairs,
			TrendPair{Activity: "jobs", Behavior: name, Result: stats.Spearman(jobs, behaviors[name])},
			TrendPair{Activity: "gpu_hours", Behavior: name, Result: stats.Spearman(hours, behaviors[name])},
		)
	}
	return r
}

func nanToZero(v float64) float64 {
	if isNaN(v) {
		return 0
	}
	return v
}

// ConcentrationResult is §IV's Pareto statistics plus §V's user-level
// multi-GPU reach.
type ConcentrationResult struct {
	Users          int
	MedianUserJobs float64
	Top5PctShare   float64
	Top20PctShare  float64
	Gini           float64
	Lorenz         []stats.Point

	// Multi-GPU reach (§V): fraction of users whose largest job used ≥2,
	// ≥3 and ≥9 GPUs.
	UsersWithMultiFrac float64
	UsersWith3Frac     float64
	UsersWith9Frac     float64
}

// Concentration computes the §IV/§V statistics from the per-user row
// index; every output is either sorted internally or an order-independent
// count, so iterating users in ascending order changes nothing.
func Concentration(c *trace.Columns) ConcentrationResult {
	counts := make([]float64, 0, len(c.Users))
	var m2, m3, m9 float64
	for _, u := range c.Users {
		idx := c.ByUser[u]
		counts = append(counts, float64(len(idx)))
		maxGPUs := 0
		for _, k := range idx {
			if g := c.NumGPUs[k]; g > maxGPUs {
				maxGPUs = g
			}
		}
		if maxGPUs >= 2 {
			m2++
		}
		if maxGPUs >= 3 {
			m3++
		}
		if maxGPUs >= 9 {
			m9++
		}
	}
	conc := stats.NewConcentration(counts)
	r := ConcentrationResult{
		Users:          len(counts),
		MedianUserJobs: stats.Median(counts),
		Top5PctShare:   conc.TopShare(0.05),
		Top20PctShare:  conc.TopShare(0.20),
		Gini:           conc.Gini(),
		Lorenz:         conc.LorenzCurve(),
	}
	if len(counts) == 0 {
		return r
	}
	n := float64(len(counts))
	r.UsersWithMultiFrac = m2 / n
	r.UsersWith3Frac = m3 / n
	r.UsersWith9Frac = m9 / n
	return r
}
