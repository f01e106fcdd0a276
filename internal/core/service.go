package core

import (
	"repro/internal/trace"
)

// RuntimeResult is Fig. 3a: run-time CDFs of GPU and CPU jobs, in minutes.
type RuntimeResult struct {
	GPU CDFStat
	CPU CDFStat
}

// Runtimes computes Fig. 3a from the shared columnar index.
func Runtimes(c *trace.Columns) RuntimeResult {
	return RuntimeResult{
		GPU: colCDF(c.RunMin),
		CPU: colCDF(c.CPURunMin),
	}
}

// WaitResult is Fig. 3b plus §V's waits by job size: queue waits as raw
// seconds and as percentages of service time.
type WaitResult struct {
	GPUWaitPct CDFStat // wait as % of service time, GPU jobs
	CPUWaitPct CDFStat // wait as % of service time, CPU jobs

	GPUWaitUnder1MinFrac float64 // "70 % of the GPU jobs spend less than one minute in the queue"
	CPUWaitOver1MinFrac  float64 // "70 % of the CPU jobs spend more than one minute"
	GPUWaitPctUnder2Frac float64 // ">50 % of the GPU jobs spend less than 2 % of their service times waiting"

	// MedianWaitBySize indexes §V's size classes: 1 GPU, 2 GPUs, 3–8 GPUs,
	// and 9+ GPUs; values are median waits in seconds.
	MedianWaitBySize [4]float64
}

// SizeClassLabel names a §V size class.
func SizeClassLabel(class int) string {
	return [...]string{"1 GPU", "2 GPUs", "3-8 GPUs", ">8 GPUs"}[class]
}

// Waits computes Fig. 3b from the shared wait columns: the threshold
// fractions become binary searches over the cached sorted views (counts, and
// hence the divisions, match the row scan exactly).
func Waits(c *trace.Columns) WaitResult {
	var r WaitResult
	r.GPUWaitPct = colCDF(c.WaitPct)
	r.CPUWaitPct = colCDF(c.CPUWaitPct)
	if c.WaitSec.N() > 0 {
		r.GPUWaitUnder1MinFrac = c.WaitSec.Stats().FractionBelow(60)
		r.GPUWaitPctUnder2Frac = c.WaitPct.Stats().FractionBelow(2)
	}
	if c.CPUWaitSec.N() > 0 {
		r.CPUWaitOver1MinFrac = c.CPUWaitSec.Stats().FractionAbove(60)
	}
	for s := range c.WaitBySize {
		r.MedianWaitBySize[s] = c.WaitBySize[s].Stats().Quantile(0.5)
	}
	return r
}
