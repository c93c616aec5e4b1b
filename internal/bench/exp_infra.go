package bench

import (
	"fmt"
	"slices"
	"time"

	"sage/internal/baseline"
	"sage/internal/cloud"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stats"
)

func init() {
	register(Experiment{
		ID: 1, Name: "throughput-map", Figure: "F1",
		Desc: "Snapshot of the monitored inter-datacenter throughput map (MB/s)",
		Run:  expThroughputMap,
	})
	register(Experiment{
		ID: 2, Name: "variability-week", Figure: "F2",
		Desc: "A week of inter-site throughput and blob-staging variability from North EU",
		Run:  expVariabilityWeek,
	})
	register(Experiment{
		ID: 3, Name: "estimators", Figure: "F3",
		Desc: "Estimator tracking accuracy over 24h: WSI vs LSI vs last-sample",
		Run:  expEstimators,
	})
}

// expThroughputMap reproduces the monitoring agent's live inter-site map.
func expThroughputMap(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	e := newEngine(cfg, true)
	warm := 30 * time.Minute
	if cfg.Quick {
		warm = 5 * time.Minute
	}
	e.Sched.RunFor(warm)
	ids := e.Net.Topology().SiteIDs()
	tb := stats.NewTable("F1: inter-datacenter throughput map (MB/s), monitored", "from\\to")
	for _, to := range ids {
		tb.Headers = append(tb.Headers, string(to))
	}
	for _, from := range ids {
		row := []string{string(from)}
		for _, to := range ids {
			if from == to {
				row = append(row, "-")
				continue
			}
			mean, _ := e.Monitor.Estimate(from, to)
			row = append(row, fmt.Sprintf("%.1f", mean))
		}
		tb.Add(row...)
	}
	return []*stats.Table{tb}
}

// expVariabilityWeek measures 7 days of (a) throughput probes and (b) blob
// staging times from North EU to the five other sites.
func expVariabilityWeek(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	days := 7
	probesPerDay := 144 // every 10 minutes
	stagesPerDay := 12
	if cfg.Quick {
		days, probesPerDay, stagesPerDay = 2, 48, 6
	}
	targets := []cloud.SiteID{cloud.WestEU, cloud.NorthUS, cloud.SouthUS, cloud.EastUS, cloud.WestUS}

	type cellResult struct {
		thr   stats.Summary
		stage stats.Summary
	}
	results := make([]cellResult, len(targets))
	parMap(len(targets), func(ti int) {
		target := targets[ti]
		sched := simtime.New()
		topo := cloud.DefaultAzure()
		net := netsim.New(sched, topo, rng.New(cfg.Seed+uint64(ti)), netsim.Options{})
		client := net.NewNode(cloud.NorthEU, cloud.Small)
		store := baseline.NewBlobStore(net, target)
		link := linkIndex(topo, cloud.NorthEU, target)
		var thr, stage []float64
		probeGap := 24 * time.Hour / time.Duration(probesPerDay)
		stageGap := 24 * time.Hour / time.Duration(stagesPerDay)
		sched.NewTicker(probeGap, func(simtime.Time) {
			thr = append(thr, net.Probe(link))
		})
		sched.NewTicker(stageGap, func(simtime.Time) {
			store.StageTime(client, 100<<20, func(d time.Duration) {
				stage = append(stage, d.Seconds())
			})
		})
		sched.RunFor(time.Duration(days) * 24 * time.Hour)
		results[ti] = cellResult{thr: stats.Summarize(thr), stage: stats.Summarize(stage)}
	})

	ta := stats.NewTable("F2a: TCP throughput from NEU over one week (100MB probes)",
		"destination", "mean MB/s", "stddev", "min", "max", "samples")
	tbl := stats.NewTable("F2b: staging 100MB into cloud storage at destination",
		"destination", "mean s", "stddev", "min", "max", "samples")
	for i, target := range targets {
		r := results[i]
		ta.Add(string(target),
			fmt.Sprintf("%.2f", r.thr.Mean), fmt.Sprintf("%.2f", r.thr.Std),
			fmt.Sprintf("%.2f", r.thr.Min), fmt.Sprintf("%.2f", r.thr.Max),
			fmt.Sprintf("%d", r.thr.N))
		tbl.Add(string(target),
			fmt.Sprintf("%.1f", r.stage.Mean), fmt.Sprintf("%.1f", r.stage.Std),
			fmt.Sprintf("%.1f", r.stage.Min), fmt.Sprintf("%.1f", r.stage.Max),
			fmt.Sprintf("%d", r.stage.N))
	}
	return []*stats.Table{ta, tbl}
}

// linkIndex is the place of the directed link from → to in topo.Links(), the
// index netsim.Network.Probe takes.
func linkIndex(topo *cloud.Topology, from, to cloud.SiteID) int {
	return slices.IndexFunc(topo.Links(), func(l *cloud.LinkSpec) bool { return l.From == from && l.To == to })
}

// expEstimators replays the same 24h probe sequence into the three
// estimators and reports tracking error against ground truth.
func expEstimators(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	hours := 24
	if cfg.Quick {
		hours = 6
	}
	sched := simtime.New()
	topo := cloud.DefaultAzure()
	// Probes are noisy measurements: beyond Gaussian error, real iperf-style
	// probes occasionally return wild transients (slow-start, co-tenant
	// bursts) that say nothing about deliverable capacity.
	// Capacity drifts on a half-hour timescale (OUTheta) while probes fire
	// every minute: the estimator's job is to smooth measurement error —
	// including the occasional wild transient — without losing the drift.
	net := netsim.New(sched, topo, rng.New(cfg.Seed), netsim.Options{
		ProbeNoise: 0.15, OUTheta: 1.0 / 1800, ProbeOutlierProb: 0.10,
	})
	wsi := monitor.NewWSI(12, time.Minute)
	link := linkIndex(topo, cloud.NorthUS, cloud.NorthEU)
	lsi := monitor.NewLSI()
	last := monitor.NewLastSample()
	ests := []monitor.Estimator{last, lsi, wsi}

	type hourAcc struct {
		truth float64
		est   [3]float64
		err   [3]float64
		n     int
	}
	acc := make([]hourAcc, hours)
	sched.NewTicker(time.Minute, func(now simtime.Time) {
		h := int(now / simtime.Time(time.Hour))
		if h >= hours {
			return
		}
		truth := net.CapacityNow(cloud.NorthUS, cloud.NorthEU)
		sample := monitor.Sample{Value: net.Probe(link), At: now}
		a := &acc[h]
		a.truth += truth
		a.n++
		for i, est := range ests {
			est.Observe(sample)
			a.est[i] += est.Mean()
			a.err[i] += abs(est.Mean() - truth)
		}
	})
	sched.RunFor(time.Duration(hours) * time.Hour)

	ta := stats.NewTable("F3a: hourly mean estimate vs ground truth, NUS->NEU (MB/s)",
		"hour", "truth", "Monitor", "LSI", "WSI")
	var totals [3]float64
	var totalN int
	for h := range acc {
		a := acc[h]
		if a.n == 0 {
			continue
		}
		n := float64(a.n)
		ta.Add(fmt.Sprintf("%d", h+1),
			fmt.Sprintf("%.2f", a.truth/n),
			fmt.Sprintf("%.2f", a.est[0]/n),
			fmt.Sprintf("%.2f", a.est[1]/n),
			fmt.Sprintf("%.2f", a.est[2]/n))
		for i := range totals {
			totals[i] += a.err[i]
		}
		totalN += a.n
	}
	tb := stats.NewTable("F3b: mean absolute estimation error by strategy (MB/s)",
		"strategy", "MAE", "relative to Monitor")
	base := totals[0] / float64(totalN)
	for i, name := range []string{"Monitor", "LSI", "WSI"} {
		mae := totals[i] / float64(totalN)
		tb.Add(name, fmt.Sprintf("%.3f", mae), pct(mae/base-1))
	}
	return []*stats.Table{ta, tb}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
