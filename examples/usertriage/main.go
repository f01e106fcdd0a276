// User triage: a system administrator asks which users to target with which
// intervention — the §IV/§VI/§VIII analysis pipeline turned into an
// actionable report. Heavy low-utilization users are co-location candidates,
// IDE-heavy users need state-saving, and exploratory-heavy users are the
// audience for the cheap GPU tier.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	cfg := workload.ScaledConfig(0.08)
	cfg.Seed = 99
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ds := gen.BuildDataset(gen.GenerateSpecs())
	users := core.AggregateUsers(ds.Columns())
	byUser := ds.ByUser()

	// Population overview (§IV).
	conc := core.Concentration(ds.Columns())
	fmt.Printf("%d users; top 5%% submit %s of jobs, top 20%% submit %s (Gini %.2f)\n\n",
		conc.Users, report.Pct(conc.Top5PctShare), report.Pct(conc.Top20PctShare), conc.Gini)

	// Rank users by GPU hours and classify their dominant life-cycle stage.
	type triageRow struct {
		user              int
		hours             float64
		jobs              int
		avgSM             float64
		dominant          trace.Category
		nonMatureHourFrac float64
	}
	var rows []triageRow
	for _, u := range users {
		jobs := byUser[u.User]
		var hours [trace.NumCategories]float64
		var total float64
		for _, j := range jobs {
			h := j.GPUHours()
			hours[lifecycle.Classify(j)] += h
			total += h
		}
		dom := trace.Mature
		for c := trace.Category(0); c < trace.NumCategories; c++ {
			if hours[c] > hours[dom] {
				dom = c
			}
		}
		row := triageRow{user: u.User, hours: total, jobs: u.Jobs, avgSM: u.AvgSM, dominant: dom}
		if total > 0 {
			row.nonMatureHourFrac = 1 - hours[trace.Mature]/total
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].hours > rows[b].hours })

	t := report.NewTable("top users by GPU hours, with suggested intervention",
		"user", "GPU hours", "jobs", "avg SM", "dominant stage", "suggestion")
	limit := 12
	if len(rows) < limit {
		limit = len(rows)
	}
	for _, r := range rows[:limit] {
		t.AddRowF(r.user, r.hours, r.jobs, r.avgSM, r.dominant.String(), suggest(r.avgSM, r.dominant))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// How much of the system's GPU time is non-mature, and who holds it?
	var nonMature, total float64
	for _, r := range rows {
		nonMature += r.nonMatureHourFrac * r.hours
		total += r.hours
	}
	fmt.Printf("\nnon-mature work: %s of all GPU hours (paper: ~61%%)\n", report.Pct(nonMature/total))
	fmt.Println("interventions follow the paper's Sec VIII user recommendations.")
}

// suggest maps a user's profile onto the paper's §VIII recommendations.
func suggest(avgSM float64, dominant trace.Category) string {
	switch {
	case dominant == trace.IDE:
		return "checkpointing + co-location"
	case dominant == trace.Exploratory:
		return "cheap GPU tier"
	case avgSM < 10:
		return "co-location candidate"
	default:
		return "keep on fast tier"
	}
}
