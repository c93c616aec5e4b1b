package bench

import (
	"fmt"
	"sync"
	"time"

	"sage/internal/baseline"
	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/stats"
	"sage/internal/transfer"
)

func init() {
	register(Experiment{
		ID: 4, Name: "intrusiveness", Figure: "F4",
		Desc: "Impact of intrusiveness on 1GB NEU->NUS transfer time, 1..5 VMs",
		Run:  expIntrusiveness,
	})
	register(Experiment{
		ID: 5, Name: "cost-time", Figure: "F5",
		Desc: "Cost/time tradeoff vs number of worker VMs for 1GB NEU->NUS",
		Run:  expCostTime,
	})
	register(Experiment{
		ID: 6, Name: "env-aware", Figure: "F6",
		Desc: "Environment-aware vs plain parallel transfers under degradation",
		Run:  expEnvAware,
	})
	register(Experiment{
		ID: 7, Name: "baselines", Figure: "F7",
		Desc: "SAGE vs direct, blob relay and static parallel across data sizes",
		Run:  expBaselines,
	})
}

// oneTransfer runs a single transfer to completion on a dedicated engine.
func oneTransfer(e *core.Engine, req transfer.Request, bound time.Duration) (transfer.Result, bool) {
	var res *transfer.Result
	_, err := e.Mgr.Transfer(req, func(r transfer.Result) { res = &r })
	if err != nil {
		return transfer.Result{}, false
	}
	ok := runUntilDone(e.Sched, func() bool { return res != nil }, time.Second, bound)
	if !ok {
		return transfer.Result{}, false
	}
	return *res, true
}

// expIntrusiveness sweeps VM count x intrusiveness for a fixed transfer.
func expIntrusiveness(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	size := int64(1 << 30)
	if cfg.Quick {
		size = 256 << 20
	}
	intrs := []float64{0.05, 0.10, 0.20}
	lanes := []int{1, 2, 3, 4, 5}
	type cell struct{ dur time.Duration }
	results := make([]cell, len(intrs)*len(lanes))
	parMap(len(results), func(i int) {
		intr := intrs[i/len(lanes)]
		n := lanes[i%len(lanes)]
		e := deployedEngine(cfg, false, 8)
		res, ok := oneTransfer(e, transfer.Request{
			From: cloud.NorthEU, To: cloud.NorthUS, Size: size,
			Strategy: transfer.EnvAware, Lanes: n, Intr: intr,
		}, 48*time.Hour)
		if ok {
			results[i] = cell{res.Duration}
		}
	})
	tb := stats.NewTable(
		fmt.Sprintf("F4: transfer time of %s NEU->NUS by intrusiveness and VM count", mb(size)),
		"intrusiveness", "1 VM", "2 VMs", "3 VMs", "4 VMs", "5 VMs")
	for ii, intr := range intrs {
		row := []string{fmt.Sprintf("%.0f%%", intr*100)}
		for li := range lanes {
			row = append(row, stats.FmtDur(results[ii*len(lanes)+li].dur))
		}
		tb.Add(row...)
	}
	return []*stats.Table{tb}
}

// expCostTime sweeps worker count and reports measured time, cost and the
// cost-time product whose minimum is the knee.
func expCostTime(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	size := int64(1 << 30)
	if cfg.Quick {
		size = 256 << 20
	}
	maxN := 10
	type cell struct {
		res transfer.Result
		ok  bool
	}
	results := make([]cell, maxN)
	parMap(maxN, func(i int) {
		e := deployedEngine(cfg, false, 12)
		res, ok := oneTransfer(e, transfer.Request{
			From: cloud.NorthEU, To: cloud.NorthUS, Size: size,
			Strategy: transfer.EnvAware, Lanes: i + 1, Intr: 0.5,
		}, 48*time.Hour)
		results[i] = cell{res, ok}
	})
	tb := stats.NewTable(
		fmt.Sprintf("F5: cost/time tradeoff for %s NEU->NUS", mb(size)),
		"VMs", "time", "cost", "cost*time", "MB/s")
	bestN, bestScore := 0, 0.0
	for i, c := range results {
		if !c.ok {
			tb.Add(fmt.Sprintf("%d", i+1), "timeout", "", "", "")
			continue
		}
		score := c.res.Cost * c.res.Duration.Seconds()
		if bestN == 0 || score < bestScore {
			bestN, bestScore = i+1, score
		}
		tb.Add(fmt.Sprintf("%d", i+1),
			stats.FmtDur(c.res.Duration),
			stats.FmtMoney(c.res.Cost),
			fmt.Sprintf("%.2f", score),
			fmt.Sprintf("%.2f", c.res.MBps))
	}
	knee := stats.NewTable("F5: knee", "optimal VMs (min cost*time)")
	knee.Add(fmt.Sprintf("%d", bestN))
	return []*stats.Table{tb, knee}
}

// expEnvAware compares environment-aware dispatch against static striping
// when source VMs degrade mid-transfer, across sizes and distances, with
// repetitions and confidence intervals.
func expEnvAware(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	sizes := []int64{64 << 20, 256 << 20, 1 << 30, 2 << 30}
	reps := 5
	if cfg.Quick {
		sizes = []int64{64 << 20, 256 << 20}
		reps = 3
	}
	pairs := []struct {
		name     string
		from, to cloud.SiteID
	}{
		{"SUS->NUS (near)", cloud.SouthUS, cloud.NorthUS},
		{"NEU->NUS (far)", cloud.NorthEU, cloud.NorthUS},
	}
	strategies := []transfer.Strategy{transfer.ParallelStatic, transfer.EnvAware}

	type cell struct{ secs []float64 }
	results := make([]cell, len(pairs)*len(sizes)*len(strategies))
	idx := func(p, s, st int) int { return (p*len(sizes)+s)*len(strategies) + st }
	total := len(results) * reps
	var resultsMu sync.Mutex
	parMap(total, func(k int) {
		ci := k / reps
		rep := k % reps
		st := ci % len(strategies)
		s := (ci / len(strategies)) % len(sizes)
		p := ci / (len(strategies) * len(sizes))
		e := deployedEngine(cfg.reseeded(cfg.Seed+uint64(rep)*101), true, 8)
		// Degrade 2 of the source pool's nodes shortly into the transfer.
		e.Sched.After(8*time.Second, func() {
			pool := e.Mgr.Pool(pairs[p].from)
			e.Net.SetNodeNICScale(pool[0], 0.05)
			e.Net.SetNodeNICScale(pool[1], 0.05)
		})
		res, ok := oneTransfer(e, transfer.Request{
			From: pairs[p].from, To: pairs[p].to, Size: sizes[s],
			Strategy: strategies[st], Lanes: 5, Intr: 1,
		}, 96*time.Hour)
		if ok {
			// Reps of one cell run concurrently and share the slice.
			resultsMu.Lock()
			results[ci].secs = append(results[ci].secs, res.Duration.Seconds())
			resultsMu.Unlock()
		}
	})
	tb := stats.NewTable("F6: env-aware (GEO-DMS) vs plain parallel transfers (mean [95% CI], s)",
		"pair", "size", "static", "env-aware", "improvement")
	for p := range pairs {
		for s := range sizes {
			st := stats.Summarize(results[idx(p, s, 0)].secs)
			ea := stats.Summarize(results[idx(p, s, 1)].secs)
			imp := 0.0
			if st.Mean > 0 {
				imp = 1 - ea.Mean/st.Mean
			}
			tb.Add(pairs[p].name, mb(sizes[s]),
				fmt.Sprintf("%.1f [%.1f,%.1f]", st.Mean, st.CI95Low, st.CI95High),
				fmt.Sprintf("%.1f [%.1f,%.1f]", ea.Mean, ea.CI95Low, ea.CI95High),
				pct(imp))
		}
	}
	return []*stats.Table{tb}
}

// expBaselines compares SAGE against the three baseline transfer options
// across data sizes.
func expBaselines(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	sizes := []int64{100 << 20, 500 << 20, 1 << 30, 2 << 30}
	if cfg.Quick {
		sizes = []int64{100 << 20, 500 << 20}
	}
	options := []string{"BlobRelay", "Direct", "StaticParallel", "SAGE"}
	type cell struct {
		dur  time.Duration
		cost float64
		ok   bool
	}
	results := make([]cell, len(sizes)*len(options))
	parMap(len(results), func(i int) {
		si := i / len(options)
		oi := i % len(options)
		size := sizes[si]
		switch options[oi] {
		case "BlobRelay":
			e := deployedEngine(cfg, true, 8)
			store := baseline.NewBlobStore(e.Net, cloud.NorthUS)
			src := e.Net.NewNode(cloud.NorthEU, cloud.Medium)
			dst := e.Net.NewNode(cloud.NorthUS, cloud.Medium)
			var res *baseline.RelayResult
			files := int(size / (32 << 20))
			if files < 1 {
				files = 1
			}
			err := store.Relay(baseline.RelaySpec{
				Src: src, Dst: dst, Files: files, FileBytes: size / int64(files), Parallel: 2,
			}, func(r baseline.RelayResult) { res = &r })
			if err == nil && runUntilDone(e.Sched, func() bool { return res != nil }, time.Second, 96*time.Hour) {
				results[i] = cell{res.Duration, res.Cost, true}
			}
		default:
			var req transfer.Request
			switch options[oi] {
			case "Direct":
				req = transfer.Request{Strategy: transfer.Direct, Lanes: 1}
			case "StaticParallel":
				req = transfer.Request{Strategy: transfer.ParallelStatic, Lanes: 4}
			case "SAGE":
				req = transfer.Request{Strategy: transfer.MultipathDynamic, NodeBudget: 8}
			}
			req.From, req.To, req.Size, req.Intr = cloud.NorthEU, cloud.NorthUS, size, 1
			e := deployedEngine(cfg, true, 8)
			e.Sched.RunFor(time.Minute) // monitor warm-up
			if res, ok := oneTransfer(e, req, 96*time.Hour); ok {
				results[i] = cell{res.Duration, res.Cost, true}
			}
		}
	})
	tb := stats.NewTable("F7: transfer time by option and data size (NEU->NUS)",
		"size", "BlobRelay", "Direct", "StaticParallel", "SAGE", "SAGE vs Blob", "SAGE vs Static")
	for si, size := range sizes {
		row := []string{mb(size)}
		var vals [4]cell
		for oi := range options {
			vals[oi] = results[si*len(options)+oi]
			if vals[oi].ok {
				row = append(row, stats.FmtDur(vals[oi].dur))
			} else {
				row = append(row, "timeout")
			}
		}
		ratio := func(a, b cell) string {
			if !a.ok || !b.ok || b.dur == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1fx", a.dur.Seconds()/b.dur.Seconds())
		}
		row = append(row, ratio(vals[0], vals[3]), ratio(vals[2], vals[3]))
		tb.Add(row...)
	}
	return []*stats.Table{tb}
}
