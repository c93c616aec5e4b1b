package bench

import (
	"fmt"
	"time"

	"sage/internal/baseline"
	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/stats"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

func init() {
	register(Experiment{
		ID: 9, Name: "application", Figure: "F9",
		Desc: "Scientific application: 1000 partial files/site to the meta-reducer, SAGE vs blob staging",
		Run:  expApplication,
	})
	register(Experiment{
		ID: 10, Name: "stream-latency", Figure: "F10",
		Desc: "Streaming window latency vs event rate: local aggregation vs ship-raw",
		Run:  expStreamLatency,
	})
}

// expApplication reproduces the meta-reducer experiment: every source site
// holds N partial-result files; the sink needs them all. SAGE's acknowledged
// file transfer is compared against staging through cloud storage, across
// file sizes.
func expApplication(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	files := 1000
	fileSizes := []int64{36 << 10, 1 << 20, 10 << 20, 40 << 20}
	if cfg.Quick {
		files = 100
		fileSizes = []int64{36 << 10, 1 << 20, 10 << 20}
	}
	sites := []cloud.SiteID{cloud.NorthEU, cloud.WestEU, cloud.SouthUS}
	sink := cloud.NorthUS

	type cell struct {
		dur  time.Duration
		cost float64
		ok   bool
	}
	// Index: fileSize x {SAGE, Blob}.
	results := make([]cell, len(fileSizes)*2)
	parMap(len(results), func(i int) {
		fi := i / 2
		mode := i % 2
		if mode == 0 {
			e := deployedEngine(cfg, true, 8)
			e.Sched.RunFor(time.Minute)
			rep, err := e.Gather(core.GatherSpec{
				Partials: workload.Partials{Sites: sites, Files: files, FileBytes: fileSizes[fi]},
				Sink:     sink,
				Strategy: transfer.EnvAware,
				Lanes:    4, Intr: 1,
			})
			if err == nil {
				results[i] = cell{rep.Makespan, rep.TotalCost, true}
			}
			return
		}
		// Blob staging: each site relays its files through the store.
		e := deployedEngine(cfg, true, 8)
		store := baseline.NewBlobStore(e.Net, sink)
		remaining := 0
		var makespan time.Duration
		var cost float64
		start := e.Sched.Now()
		for _, site := range sites {
			src := e.Net.NewNode(site, cloud.Medium)
			dst := e.Net.NewNode(sink, cloud.Medium)
			remaining++
			err := store.Relay(baseline.RelaySpec{
				Src: src, Dst: dst, Files: files, FileBytes: fileSizes[fi], Parallel: 4,
			}, func(r baseline.RelayResult) {
				remaining--
				cost += r.Cost
				if d := e.Sched.Now() - start; d > makespan {
					makespan = d
				}
			})
			if err != nil {
				return
			}
		}
		if runUntilDone(e.Sched, func() bool { return remaining == 0 }, time.Minute, 30*24*time.Hour) {
			results[i] = cell{makespan, cost, true}
		}
	})

	tb := stats.NewTable(
		fmt.Sprintf("F9: time to move %d files/site from 3 sites to the meta-reducer (%s)", files, sink),
		"file size", "total volume", "SAGE", "BlobRelay", "speedup", "SAGE cost", "Blob cost")
	for fi, fs := range fileSizes {
		sage := results[fi*2]
		blob := results[fi*2+1]
		volume := int64(len(sites)) * int64(files) * fs
		speedup := "-"
		if sage.ok && blob.ok && sage.dur > 0 {
			speedup = fmt.Sprintf("%.1fx", blob.dur.Seconds()/sage.dur.Seconds())
		}
		fmtCell := func(c cell) string {
			if !c.ok {
				return "timeout"
			}
			return stats.FmtDur(c.dur)
		}
		tb.Add(stats.FmtBytes(fs), stats.FmtBytes(volume),
			fmtCell(sage), fmtCell(blob), speedup,
			stats.FmtMoney(sage.cost), stats.FmtMoney(blob.cost))
	}
	return []*stats.Table{tb}
}

// expStreamLatency sweeps event rates and reports window-completion latency
// percentiles for SAGE (ship partials) vs the centralized baseline (ship
// raw events).
func expStreamLatency(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	rates := []float64{50, 500, 2000, 8000}
	dur := 10 * time.Minute
	if cfg.Quick {
		rates = []float64{50, 500, 2000}
		dur = 5 * time.Minute
	}
	modes := []struct {
		name    string
		shipRaw bool
	}{{"SAGE (partials)", false}, {"Centralized (raw)", true}}

	type cell struct {
		rep *core.Report
	}
	results := make([]cell, len(rates)*len(modes))
	parMap(len(results), func(i int) {
		ri := i / len(modes)
		mi := i % len(modes)
		e := deployedEngine(cfg, true, 8)
		e.Sched.RunFor(time.Minute)
		job := core.JobSpec{
			Sources: []core.SourceSpec{
				{Site: cloud.NorthEU, Rate: workload.ConstantRate(rates[ri])},
				{Site: cloud.WestEU, Rate: workload.ConstantRate(rates[ri])},
				{Site: cloud.SouthUS, Rate: workload.ConstantRate(rates[ri])},
			},
			Sink:     cloud.NorthUS,
			Window:   30 * time.Second,
			Agg:      stream.Mean,
			ShipRaw:  modes[mi].shipRaw,
			Strategy: transfer.EnvAware,
			Lanes:    3, Intr: 1,
		}
		rep, err := e.Run(job, dur)
		if err == nil {
			results[i] = cell{rep}
		}
	})

	tb := stats.NewTable("F10: window latency vs event rate (3 sites, 30s windows)",
		"rate ev/s/site", "mode", "windows", "p50 s", "p95 s", "p99 s", "bytes moved", "cost")
	for ri, rate := range rates {
		for mi, mode := range modes {
			c := results[ri*len(modes)+mi]
			if c.rep == nil {
				tb.Add(fmt.Sprintf("%.0f", rate), mode.name, "failed", "", "", "", "", "")
				continue
			}
			s := c.rep.LatencySummary
			tb.Add(fmt.Sprintf("%.0f", rate), mode.name,
				fmt.Sprintf("%d", c.rep.Windows),
				fmt.Sprintf("%.2f", s.P50), fmt.Sprintf("%.2f", s.P95), fmt.Sprintf("%.2f", s.P99),
				stats.FmtBytes(c.rep.TotalBytes), stats.FmtMoney(c.rep.TotalCost))
		}
	}
	return []*stats.Table{tb}
}
