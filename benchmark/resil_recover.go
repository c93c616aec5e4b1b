package main

import (
	"bytes"
	"fmt"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/core"
	"sage/internal/scenario"
)

// resil_recover: one checkpointing job on the default six-site topology,
// described as a roster document and built through the scenario package,
// losing and regaining one source site after another. It walks the resilient
// sequential window path: map-backed aggregates, state snapshots, checkpoint
// encoding, batch-log replay and ledger-resumed transfers.
const (
	resilRate       = 5000.0 // events/s per source
	resilKeys       = 20000
	resilWindow     = 20 * time.Second
	resilCheckpoint = 10 * time.Second
	resilDuration   = 6 * time.Minute
	resilKillEvery  = 90 * time.Second
	resilDownFor    = 40 * time.Second
)

var (
	resilSources = []string{"NEU", "WEU", "SUS", "EUS", "WUS"}
	resilVictims = []string{"WEU", "NEU", "SUS", "EUS"}
)

const resilSink = "NUS"

var resilRecover = &workloadDef{
	name: "resil_recover",
	why: "the resilient window path (map aggregates, Snapshot, checkpoint encode, replay, resume) under " +
		"rotating site failures: a window-path change that helps agg_wide and costs this path is caught here",
	unit: func(c *runCtx) (*unit, error) {
		u, _, err := resilRun(c, true)
		return u, err
	},
	verify: resilVerify,
}

// resilRoster generates the roster document. Only the bytes reach the
// program under test.
func resilRoster(c *runCtx, inject bool) ([]byte, time.Duration, error) {
	dur := c.scaled(resilDuration, resilWindow)
	job := &apiv1.JobConfig{
		Sink:               resilSink,
		Window:             apiv1.Duration(resilWindow),
		Agg:                "mean",
		Strategy:           "envaware",
		Lanes:              2,
		Duration:           apiv1.Duration(dur),
		CheckpointInterval: apiv1.Duration(resilCheckpoint),
	}
	for _, site := range resilSources {
		job.Sources = append(job.Sources, apiv1.SourceConfig{
			Site: site, Rate: resilRate, Keys: resilKeys, Skew: 0.8,
		})
	}
	ros := &apiv1.Roster{Name: "resil_recover", Seed: c.seed, Job: job}
	if inject {
		every := c.scaled(resilKillEvery, resilWindow)
		down := resilDownFor
		if down > every/2 {
			down = every / 2
		}
		for i, at := 0, every/2; at+down < dur; i, at = i+1, at+every {
			victim := resilVictims[i%len(resilVictims)]
			ros.Injections = append(ros.Injections,
				apiv1.Injection{At: apiv1.Duration(at), Kind: "kill_site", From: victim},
				apiv1.Injection{At: apiv1.Duration(at + down), Kind: "restore_site", From: victim})
		}
	}
	var buf bytes.Buffer
	if err := apiv1.EncodeRoster(&buf, ros); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), dur, nil
}

// resilRun is one unit. It follows scenario.Run step by step — Load,
// BuildEngine, BuildJob, Engine.Run — instead of calling it, because the
// per-layer counts need the engine scenario.Run keeps to itself.
func resilRun(c *runCtx, inject bool) (*unit, *core.Report, error) {
	u := &unit{}
	doc, dur, err := resilRoster(c, inject)
	if err != nil {
		return nil, nil, fmt.Errorf("resil_recover: %w", err)
	}
	u.count("apiv1.roster_bytes", float64(len(doc)))
	t0 := time.Now()

	end := c.tr.begin("scenario.Load")
	s, err := scenario.Load(bytes.NewReader(doc))
	end()
	if err != nil {
		return nil, nil, fmt.Errorf("resil_recover: %w", err)
	}
	ob := newObserver(c)
	end = c.tr.begin("scenario.BuildEngine")
	e := scenario.BuildEngine(s, core.WithShards(1), core.WithObservability(ob))
	end()
	end = c.tr.begin("scenario.BuildJob")
	job, err := scenario.BuildJob(s.Seed, s.Job, "scenario/")
	end()
	if err != nil {
		return nil, nil, fmt.Errorf("resil_recover: %w", err)
	}
	u.setupS = time.Since(t0).Seconds()

	t1 := time.Now()
	end = c.tr.begin("core.Engine.Run")
	rep, err := e.Run(*job, dur)
	end()
	if err != nil {
		return nil, nil, fmt.Errorf("resil_recover: %w", err)
	}
	u.wallS = time.Since(t1).Seconds()

	end = c.tr.begin("check")
	checkResilUnit(u, rep, int(dur/resilWindow), inject)
	engineCounts(u, e, ob)
	end()
	return u, rep, nil
}

// checkResilUnit checks window completion and that every failure recovered,
// and keeps the answer.
func checkResilUnit(u *unit, rep *core.Report, windows int, inject bool) {
	u.addReport(rep, windows)
	u.check(rep.Windows == windows, "resil_recover: Windows = %d, want %d", rep.Windows, windows)
	u.check(rep.Incomplete == 0, "resil_recover: %d incomplete windows", rep.Incomplete)
	if rm := rep.Resilience; inject {
		u.check(rm != nil && rm.Failures > 0 && rm.Recoveries == rm.Failures,
			"resil_recover: resilience metrics %+v: want failures, each recovered", rm)
	}
	u.global = rep.Global.Result()
	u.fingerprint = reportFingerprint(rep, u.global)
	u.count("stream.global_keys", float64(rep.Global.Keys()))
	resilienceCounts(u, rep.Resilience)
}

// resilVerify runs the same roster without injections: failures and
// recoveries must not change the answer.
func resilVerify(c *runCtx, first *unit) error {
	clean, rep, err := resilRun(c.plain(), false)
	if err != nil {
		return err
	}
	if clean.checkErr != nil {
		return clean.checkErr
	}
	if rep.Resilience != nil && rep.Resilience.Failures != 0 {
		return fmt.Errorf("resil_recover: the reference run saw %d failures", rep.Resilience.Failures)
	}
	if err := sameAnswer(first.global, clean.global); err != nil {
		return fmt.Errorf("resil_recover: answer after failures differs from the unfailed run: %w", err)
	}
	return nil
}
