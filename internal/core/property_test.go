package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// randomDataset builds a structurally valid dataset from fuzz bytes: every
// byte stream maps to some population, exercising edge shapes (all-CPU,
// all-multi-GPU, single user, zero-length series) the generated traces never
// produce.
func randomDataset(raw []byte) *trace.Dataset {
	ds := trace.NewDataset(1 + float64(len(raw)%100))
	id := int64(1)
	for i := 0; i+4 <= len(raw); i += 4 {
		b0, b1, b2, b3 := raw[i], raw[i+1], raw[i+2], raw[i+3]
		j := trace.JobRecord{
			JobID:     id,
			User:      int(b0 % 7),
			Interface: trace.Interface(b1 % 4),
			Exit:      trace.ExitStatus(b1 / 4 % 4),
			SubmitSec: float64(b2) * 1000,
			WaitSec:   float64(b3 % 64),
			RunSec:    float64(b2)*60 + 1,
			LimitSec:  86400,
		}
		if b0%3 != 0 { // GPU job
			j.NumGPUs = 1 + int(b3%4)
			for g := 0; g < j.NumGPUs; g++ {
				var s metrics.MetricSummaries
				level := float64((int(b1) + g*13) % 101)
				s[metrics.SMUtil] = metrics.SummaryRecord{Min: 0, Mean: level / 2, Max: level}
				s[metrics.MemUtil] = metrics.SummaryRecord{Min: 0, Mean: level / 8, Max: level / 2}
				s[metrics.MemSize] = metrics.SummaryRecord{Min: level / 4, Mean: level / 3, Max: level / 2}
				s[metrics.PCIeTx] = metrics.SummaryRecord{Min: 0, Mean: float64(b2 % 90), Max: float64(b2%90) + 5}
				s[metrics.PCIeRx] = metrics.SummaryRecord{Min: 0, Mean: float64(b3 % 90), Max: float64(b3%90) + 5}
				s[metrics.Power] = metrics.SummaryRecord{Min: 25, Mean: 25 + level, Max: 25 + 2*level}
				j.PerGPU = append(j.PerGPU, s)
			}
			j.FinalizeGPUSummary()
		} else {
			j.Cores = 1 + int(b3%40)
			j.MemGB = 4
		}
		ds.Add(j)
		id++
	}
	return ds
}

// Property: Characterize never panics and produces internally consistent
// results on arbitrary datasets.
func TestCharacterizeInvariantsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		ds := randomDataset(raw)
		if err := ds.Validate(); err != nil {
			return false
		}
		rep := Characterize(ds)

		// CDF curves are monotone in both coordinates with F in [0, 1].
		for _, c := range []CDFStat{
			rep.Runtimes.GPU, rep.Runtimes.CPU,
			rep.Utilization.SM, rep.Utilization.Mem, rep.Utilization.MemSize,
			rep.PCIe.Tx, rep.PCIe.Rx,
			rep.Power.Avg, rep.Power.Max,
		} {
			for i, p := range c.Curve {
				if p.F < 0 || p.F > 1 {
					return false
				}
				if i > 0 && (p.X < c.Curve[i-1].X || p.F < c.Curve[i-1].F) {
					return false
				}
			}
			if c.N > 0 && !(c.P25 <= c.P50+1e-9 && c.P50 <= c.P75+1e-9) {
				return false
			}
		}

		// Fractions live in [0, 1].
		for _, v := range []float64{
			rep.GPUCounts.SingleGPUFrac, rep.GPUCounts.MultiGPUFrac,
			rep.GPUCounts.Over2Frac, rep.GPUCounts.NinePlusFrac,
			rep.Utilization.SMOver50, rep.Bottlenecks.AnyTwoFrac,
			rep.MultiGPU.HalfIdleJobFrac,
			rep.UserMix.UsersUnder40PctMatureJobs,
		} {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
		}

		// Lifecycle shares sum to 1 (or all zero on empty populations).
		var jobSum float64
		for c := trace.Category(0); c < trace.NumCategories; c++ {
			jobSum += rep.Lifecycle.JobShare[c]
		}
		if rep.Lifecycle.Total > 0 && math.Abs(jobSum-1) > 1e-9 {
			return false
		}
		if rep.Lifecycle.Total == 0 && jobSum != 0 {
			return false
		}

		// Single + multi = 1 when jobs exist.
		if rep.Lifecycle.Total > 0 {
			if math.Abs(rep.GPUCounts.SingleGPUFrac+rep.GPUCounts.MultiGPUFrac-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bottleneck fractions per metric are bounded by 1 and pairwise
// fractions never exceed their constituents' singles.
func TestBottleneckConsistencyProperty(t *testing.T) {
	f := func(raw []byte) bool {
		ds := randomDataset(raw)
		r := Bottlenecks(ds.Columns())
		for _, v := range r.SingleFrac {
			if v < 0 || v > 1 {
				return false
			}
		}
		for pair, v := range r.PairFrac {
			if v < 0 || v > 1 {
				return false
			}
			if v > r.SingleFrac[pair[0]]+1e-9 || v > r.SingleFrac[pair[1]]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SegmentSeries intervals tile the sampled duration exactly and
// alternate strictly.
func TestSegmentSeriesProperty(t *testing.T) {
	f := func(raw []byte, intervalRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		interval := float64(intervalRaw%20)/10 + 0.1
		ts := &trace.TimeSeries{JobID: 1, IntervalSec: interval}
		stream := make([]metrics.Sample, len(raw))
		for i, b := range raw {
			stream[i].TimeSec = float64(i) * interval
			if b%2 == 1 {
				stream[i].Values[metrics.SMUtil] = 50
			}
		}
		ts.PerGPU = [][]metrics.Sample{stream}
		iv := SegmentSeries(ts)
		var total float64
		for i, seg := range iv {
			total += seg.DurSec
			if i > 0 && iv[i-1].Active == seg.Active {
				return false // must alternate
			}
			if i > 0 && math.Abs(iv[i-1].StartSec+iv[i-1].DurSec-seg.StartSec) > 1e-9 {
				return false // must tile without gaps
			}
		}
		want := float64(len(raw)) * interval
		return math.Abs(total-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
