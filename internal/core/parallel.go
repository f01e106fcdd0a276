package core

import (
	"runtime"
	"sync"

	"repro/internal/trace"
)

// characterizeCols runs the complete suite over a pre-built column index,
// fanning the figures across workers goroutines (0 means GOMAXPROCS, 1 is
// fully serial). Each task writes a disjoint set of Report fields and shared
// inputs are either immutable columns or computed once behind sync.Once, so
// the assembled Report is bit-identical for every worker count.
func characterizeCols(c *trace.Columns, workers int) *Report {
	rep := &Report{}
	users := sync.OnceValue(func() []UserStats { return AggregateUsers(c) })
	tasks := []func(){
		func() { rep.Runtimes = Runtimes(c) },
		func() { rep.Waits = Waits(c) },
		func() { rep.Utilization = Utilization(c) },
		func() { rep.PCIe = PCIe(c) },
		func() { rep.ByInterface = ByInterface(c) },
		func() { rep.Phases, rep.ActiveCoV = phasesAndActivity(c) },
		func() { rep.Bottlenecks = Bottlenecks(c) },
		func() { rep.Power = Power(c) },
		func() { rep.UserAverages = UserAverages(users()) },
		func() { rep.UserCoV = UserVariability(users()) },
		func() { rep.UserTrends = UserTrends(users()) },
		func() { rep.GPUCounts = GPUCounts(c) },
		func() { rep.MultiGPU = MultiGPU(c) },
		func() { rep.Lifecycle = Lifecycle(c) },
		func() { rep.UserMix = UserMix(c) },
		func() { rep.Concentration = Concentration(c) },
		func() { rep.HostCPUUse = HostCPU(c) },
	}
	runTasks(workers, tasks)
	return rep
}

// runTasks executes tasks over a bounded pool of workers goroutines. A panic
// inside a task does not wedge the pool: every task still runs to a verdict,
// and the lowest-indexed panic is re-raised on the caller once the pool has
// drained, keeping failure behavior deterministic.
func runTasks(workers int, tasks []func()) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	panics := make([]any, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panics[i] = p
						}
					}()
					tasks[i]()
				}()
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
