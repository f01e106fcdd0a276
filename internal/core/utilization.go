package core

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// UtilizationResult is Fig. 4a: CDFs of average SM, memory-bandwidth and
// memory-size utilization, plus the >50 % fractions the paper quotes.
type UtilizationResult struct {
	SM, Mem, MemSize                CDFStat
	SMOver50, MemOver50, SizeOver50 float64
	// NearZeroSMFrac is §III's "a large portion of the jobs (≈30 %) have
	// close to zero GPU SM utilization" (mean SM below 5 %).
	NearZeroSMFrac float64
}

// Utilization computes Fig. 4a from the shared mean-utilization columns:
// one cached sort per metric serves the CDF and all threshold fractions.
func Utilization(c *trace.Columns) UtilizationResult {
	sm := c.Mean[metrics.SMUtil].Sorted()
	mem := c.Mean[metrics.MemUtil].Sorted()
	msz := c.Mean[metrics.MemSize].Sorted()
	return UtilizationResult{
		SM:             cdfFromECDF(stats.NewECDFSorted(sm)),
		Mem:            cdfFromECDF(stats.NewECDFSorted(mem)),
		MemSize:        cdfFromECDF(stats.NewECDFSorted(msz)),
		SMOver50:       stats.FractionAboveSorted(sm, 50),
		MemOver50:      stats.FractionAboveSorted(mem, 50),
		SizeOver50:     stats.FractionAboveSorted(msz, 50),
		NearZeroSMFrac: stats.FractionBelowSorted(sm, 5),
	}
}

// PCIeResult is Fig. 4b: PCIe Tx/Rx bandwidth-utilization CDFs with the
// Kolmogorov–Smirnov distance to a uniform law quantifying the paper's
// "linearly increasing empirical CDF" observation.
type PCIeResult struct {
	Tx, Rx                   CDFStat
	TxUniformKS, RxUniformKS float64
}

// PCIe computes Fig. 4b from the shared PCIe columns: one ECDF per
// direction serves both the curve digest and the KS distance.
func PCIe(c *trace.Columns) PCIeResult {
	txE := stats.NewECDFSorted(c.Mean[metrics.PCIeTx].Sorted())
	rxE := stats.NewECDFSorted(c.Mean[metrics.PCIeRx].Sorted())
	return PCIeResult{
		Tx:          cdfFromECDF(txE),
		Rx:          cdfFromECDF(rxE),
		TxUniformKS: txE.UniformityDistance(txE.Min(), txE.Max()),
		RxUniformKS: rxE.UniformityDistance(rxE.Min(), rxE.Max()),
	}
}

// InterfaceResult is Fig. 5: utilization by submission interface.
type InterfaceResult struct {
	// Share is each interface's fraction of GPU jobs (paper: map-reduce 1 %,
	// batch 30 %, interactive 4 %, other 65 %).
	Share [trace.NumInterfaces]float64
	// SM and Mem hold per-interface distributions of job-average
	// utilization.
	SM  [trace.NumInterfaces]CDFStat
	Mem [trace.NumInterfaces]CDFStat
}

// ByInterface computes Fig. 5 by gathering the mean-utilization columns
// through the per-interface row index.
func ByInterface(c *trace.Columns) InterfaceResult {
	var r InterfaceResult
	total := len(c.GPU)
	for iface := range c.ByIface {
		idx := c.ByIface[iface]
		if total > 0 {
			r.Share[iface] = float64(len(idx)) / float64(total)
		}
		r.SM[iface] = ownedCDF(trace.Gather(c.Mean[metrics.SMUtil], idx))
		r.Mem[iface] = ownedCDF(trace.Gather(c.Mean[metrics.MemUtil], idx))
	}
	return r
}

// PowerResult is Fig. 9a: CDFs of average and maximum GPU power draw.
type PowerResult struct {
	Avg, Max CDFStat
	// TDPWatts is the device limit for context (V100: 300 W).
	TDPWatts float64
}

// Power computes Fig. 9a from the power columns.
func Power(c *trace.Columns) PowerResult {
	return PowerResult{
		Avg:      colCDF(c.Mean[metrics.Power]),
		Max:      colCDF(c.Max[metrics.Power]),
		TDPWatts: 300,
	}
}

// GPUCountResult is Fig. 13: the job-size distribution and GPU-hour shares.
type GPUCountResult struct {
	// FracByCount[k] is the fraction of jobs using exactly k GPUs
	// (index 0 unused).
	FracByCount map[int]float64
	// SingleGPUFrac, MultiGPUFrac, Over2Frac, NinePlusFrac are the quoted
	// fractions (84 %, 16 %, 2.4 %, <1 %).
	SingleGPUFrac, MultiGPUFrac, Over2Frac, NinePlusFrac float64
	// HourShareBySizeClass splits total GPU hours over §V size classes.
	HourShareBySizeClass [4]float64
	// MultiGPUHourShare is the multi-GPU jobs' share of all GPU hours
	// (paper: ≈50 %).
	MultiGPUHourShare float64
}

// GPUCounts computes Fig. 13 from the GPU-count and GPU-hour columns,
// accumulating in dataset order so the hour shares match the row scan.
func GPUCounts(c *trace.Columns) GPUCountResult {
	r := GPUCountResult{FracByCount: map[int]float64{}}
	if len(c.GPU) == 0 {
		return r
	}
	var hours [4]float64
	var total, multiHours float64
	hourVals := c.GPUHours.Values()
	for i, g := range c.NumGPUs {
		r.FracByCount[g]++
		h := hourVals[i]
		hours[trace.SizeClass(g)] += h
		total += h
		switch {
		case g == 1:
			r.SingleGPUFrac++
		default:
			r.MultiGPUFrac++
			multiHours += h
		}
		if g > 2 {
			r.Over2Frac++
		}
		if g >= 9 {
			r.NinePlusFrac++
		}
	}
	n := float64(len(c.GPU))
	for k := range r.FracByCount {
		r.FracByCount[k] /= n
	}
	r.SingleGPUFrac /= n
	r.MultiGPUFrac /= n
	r.Over2Frac /= n
	r.NinePlusFrac /= n
	if total > 0 {
		for sc := range hours {
			r.HourShareBySizeClass[sc] = hours[sc] / total
		}
		r.MultiGPUHourShare = multiHours / total
	}
	return r
}

// MultiGPUResult is Fig. 14: variability of utilization across the GPUs of
// multi-GPU jobs, with and without idle GPUs.
type MultiGPUResult struct {
	// CoVAllGPUs and CoVActiveGPUs are distributions of the per-job CoV of
	// mean utilization across GPUs, for SM, memory and memory size.
	CoVAllGPUs    [3]CDFStat
	CoVActiveGPUs [3]CDFStat
	// IdleGPUJobFrac is the share of multi-GPU jobs with at least one idle
	// GPU (paper: ≈40 % have half or more idle).
	IdleGPUJobFrac float64
	// HalfIdleJobFrac is the share with half or more GPUs idle.
	HalfIdleJobFrac float64
}

// multiGPUMetrics are the three Fig. 14 metrics.
var multiGPUMetrics = [3]metrics.Metric{metrics.SMUtil, metrics.MemUtil, metrics.MemSize}

// idleGPUMeanSM is the threshold below which a GPU counts as idle for the
// whole job ("average utilization of close to zero for all resources").
const idleGPUMeanSM = 1.0

// MultiGPU computes Fig. 14 over the pre-filtered multi-GPU population,
// reusing two scratch vectors across jobs instead of allocating per metric.
func MultiGPU(c *trace.Columns) MultiGPUResult {
	var r MultiGPUResult
	jobs := c.Multi
	var all, active [3][]float64
	var withIdle, halfIdle, considered float64
	var vals, act []float64
	for _, j := range jobs {
		if len(j.PerGPU) < 2 {
			continue
		}
		considered++
		idle := 0
		for _, g := range j.PerGPU {
			if g[metrics.SMUtil].Mean < idleGPUMeanSM && g[metrics.MemUtil].Mean < idleGPUMeanSM {
				idle++
			}
		}
		if idle > 0 {
			withIdle++
		}
		if idle*2 >= len(j.PerGPU) {
			halfIdle++
		}
		for mi, m := range multiGPUMetrics {
			vals, act = vals[:0], act[:0]
			for _, g := range j.PerGPU {
				vals = append(vals, g[m].Mean)
				if g[metrics.SMUtil].Mean >= idleGPUMeanSM || g[metrics.MemUtil].Mean >= idleGPUMeanSM {
					act = append(act, g[m].Mean)
				}
			}
			if cov := stats.CoV(vals); !isNaN(cov) {
				all[mi] = append(all[mi], cov)
			}
			if len(act) >= 2 {
				if cov := stats.CoV(act); !isNaN(cov) {
					active[mi] = append(active[mi], cov)
				}
			} else if len(act) == 1 {
				// One active GPU: no cross-GPU variability among active GPUs.
				active[mi] = append(active[mi], 0)
			}
		}
	}
	for mi := range multiGPUMetrics {
		r.CoVAllGPUs[mi] = ownedCDF(all[mi])
		r.CoVActiveGPUs[mi] = ownedCDF(active[mi])
	}
	if considered > 0 {
		r.IdleGPUJobFrac = withIdle / considered
		r.HalfIdleJobFrac = halfIdle / considered
	} else if len(jobs) > 0 {
		// Multi-GPU jobs exist but carry no per-GPU digests (the CSV path
		// flattens them): the idle-GPU question is unanswerable, not zero.
		r.IdleGPUJobFrac = math.NaN()
		r.HalfIdleJobFrac = math.NaN()
	}
	return r
}

func isNaN(v float64) bool { return v != v }
