package bench

import (
	"fmt"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/resilience"
	"sage/internal/stats"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

func init() {
	register(Experiment{
		ID: 19, Name: "recovery", Figure: "E5",
		Desc: "Resilience: recovery time, duplicate work and completeness vs checkpoint interval under a mid-run site failure",
		Run:  expRecovery,
	})
}

// expRecovery injects a full source-site outage mid-run and sweeps the
// checkpoint interval: off (recovery replays the whole retained batch log),
// 5s, 30s and 2m. Frequent checkpoints shrink the replay window — fewer
// duplicate bytes cross the WAN — at the price of more checkpoint traffic.
// The restart-from-scratch row models the no-resilience alternative: throw
// the job away on failure and re-process the stream from t=0, which
// duplicates every byte shipped before the failure was detected.
func expRecovery(cfg Config) []*stats.Table {
	cfg = cfg.withDefaults()
	const (
		window     = 20 * time.Second
		eventBytes = 200
		warmup     = time.Minute
		// The failure lands 170s into the job: late enough that every
		// interval in the sweep has taken at least one checkpoint, early
		// enough that each has a different amount of un-checkpointed work.
		failAt    = 170 * time.Second
		restoreAt = 230 * time.Second
	)
	rate := 2000.0
	dur := 6 * time.Minute
	if cfg.Quick {
		dur = 5 * time.Minute
	}

	type scheme struct {
		label string
		ckpt  time.Duration
	}
	schemes := []scheme{
		{"off (full replay)", 0},
		{"5s", 5 * time.Second},
		{"30s", 30 * time.Second},
		{"2m", 2 * time.Minute},
	}

	buildEngine := func() *core.Engine {
		e := core.NewEngine(core.WithOptions(core.Options{
			Seed:     cfg.Seed,
			Net:      netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9},
			Monitor:  monitor.Options{Interval: 30 * time.Second},
			Transfer: transfer.Options{ChunkBytes: 1 << 20},
			Params:   model.Default(),
			Shards:   cfg.Shards,
		}), core.WithObservability(observer()))
		e.DeployEverywhere(cloud.Medium, 8)
		e.Sched.RunFor(warmup)
		return e
	}
	buildJob := func(ckpt time.Duration, resilient bool) core.JobSpec {
		job := core.JobSpec{
			Sources: []core.SourceSpec{
				{Site: cloud.NorthEU, Rate: workload.ConstantRate(rate), EventBytes: eventBytes},
				{Site: cloud.WestEU, Rate: workload.ConstantRate(rate), EventBytes: eventBytes},
			},
			Sink:     cloud.NorthUS,
			Window:   window,
			Agg:      stream.Mean,
			ShipRaw:  true,
			Strategy: transfer.EnvAware,
			Lanes:    2,
			Intr:     1,
		}
		if resilient {
			job.Resilience = &resilience.Config{CheckpointInterval: ckpt}
		}
		return job
	}

	// Slot 0 runs unfailed without resilience — the clean reference that
	// prices the restart-from-scratch baseline; slots 1..n sweep the
	// checkpoint interval under the injected outage.
	reports := make([]*core.Report, len(schemes)+1)
	parMap(len(schemes)+1, func(i int) {
		e := buildEngine()
		resilient := i > 0
		var ckpt time.Duration
		if resilient {
			ckpt = schemes[i-1].ckpt
			e.Sched.After(failAt, func() {
				for _, n := range e.Mgr.Pool(cloud.NorthEU) {
					e.Net.KillNode(n)
				}
			})
			e.Sched.After(restoreAt, func() {
				for _, n := range e.Mgr.Pool(cloud.NorthEU) {
					e.Net.RestoreNode(n)
				}
			})
		}
		rep, err := e.Run(buildJob(ckpt, resilient), dur)
		if err == nil {
			reports[i] = rep
		}
	})

	expect := int(dur / window)
	completeness := func(rep *core.Report) string {
		return fmt.Sprintf("%d/%d", rep.Windows, expect)
	}

	tb := stats.NewTable(
		fmt.Sprintf("E5: NEU site fails at %s, returns at %s (2 sources -> NUS, %s windows, raw %dB events)",
			stats.FmtDur(failAt), stats.FmtDur(restoreAt), stats.FmtDur(window), eventBytes),
		"checkpoint interval", "checkpoints", "ckpt bytes", "detect", "recovery",
		"duplicate bytes", "complete")

	// Restart-from-scratch baseline, priced from the clean run: detection
	// still takes the heartbeat timeout, then the stream re-processes from
	// t=0 — so every byte the job shipped before detection is re-shipped,
	// and recovery lasts detection plus the re-processing span.
	clean := reports[0]
	hb := resilience.Config{}.WithDefaults()
	detect := time.Duration(resilience.DeadMisses)*hb.HeartbeatInterval + hb.HeartbeatInterval
	if clean != nil {
		// Windows are stamped in absolute virtual time; the job starts
		// after the warmup.
		cutoff := warmup + failAt + detect
		var dupRestart int64
		for _, sw := range clean.SiteWindows {
			if time.Duration(sw.Window.End) <= cutoff {
				dupRestart += sw.Bytes
			}
		}
		tb.Add("restart from scratch", "0", "0B",
			stats.FmtDur(detect), stats.FmtDur(detect+failAt+detect),
			stats.FmtBytes(dupRestart), completeness(clean))
	} else {
		tb.Add("restart from scratch", "timeout", "", "", "", "", "")
	}

	for i, sc := range schemes {
		rep := reports[i+1]
		if rep == nil || rep.Resilience == nil {
			tb.Add(sc.label, "timeout", "", "", "", "", "")
			continue
		}
		rm := rep.Resilience
		tb.Add(sc.label,
			fmt.Sprintf("%d", rm.Checkpoints),
			stats.FmtBytes(rm.CheckpointBytes),
			stats.FmtDur(rm.DetectTime),
			stats.FmtDur(rm.DetectTime+rm.RecoveryTime),
			stats.FmtBytes(rm.DuplicateBytes),
			completeness(rep))
	}
	return []*stats.Table{tb}
}
