// Package bench is the experiment harness: one runner per table/figure of
// the reconstructed SAGE evaluation (see DESIGN.md for the per-experiment
// index and the paper-text mismatch notice). Each experiment builds its own
// simulated cloud, runs the workload, and returns plain-text tables whose
// rows mirror what the paper-style figure would plot.
//
// Experiments are deterministic given Config.Seed. Config.Quick shrinks
// sizes and durations so the whole suite runs in seconds under
// `go test -bench`; full mode is the default for the sagebench binary.
package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/simtime"
	"sage/internal/stats"
)

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Quick shrinks durations/sizes for CI and Go benchmarks.
	Quick bool
	// Shards is the event-core shard count every experiment engine runs
	// with (default 1 = sequential). Experiment output is byte-identical
	// for any value — that property is pinned by test — so this is purely
	// a wall-clock lever. The SAGE_SHARDS environment variable supplies a
	// default when the field is zero, so CI can sweep the whole suite
	// under sharding without threading flags through every harness.
	Shards int
	// WorldSites/WorldRegions override the generated world used by the
	// scale experiment (0 = the experiment's own default size).
	WorldSites, WorldRegions int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Shards <= 0 {
		if v, err := strconv.Atoi(os.Getenv("SAGE_SHARDS")); err == nil && v > 0 {
			c.Shards = v
		} else {
			c.Shards = 1
		}
	}
	return c
}

// reseeded returns the config with a replacement seed — for experiments
// that run independent repetitions off derived seeds.
func (c Config) reseeded(seed uint64) Config {
	c.Seed = seed
	return c
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID   int
	Name string
	// Figure names the reconstructed paper artifact (e.g. "F3").
	Figure string
	Desc   string
	Run    func(Config) []*stats.Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExperimentResult is one experiment's output from RunAll.
type ExperimentResult struct {
	Experiment Experiment
	Tables     []*stats.Table
	Elapsed    time.Duration
}

// RunAll runs every registered experiment and returns results in ID order.
// Experiments fan out across parMap (each builds its own engine and RNG, so
// they are independent); results land in pre-indexed slots, keeping output
// identical to a serial run.
func RunAll(cfg Config) []ExperimentResult {
	exps := All()
	out := make([]ExperimentResult, len(exps))
	parMap(len(exps), func(i int) {
		start := time.Now()
		tables := exps[i].Run(cfg)
		out[i] = ExperimentResult{Experiment: exps[i], Tables: tables, Elapsed: time.Since(start)}
	})
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id int) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// newEngine builds a standard engine on the default Azure topology. With
// variability=false the network is deterministic and exact; with true it
// runs the full OU + glitch processes. The config's seed and shard count
// carry through to the engine.
func newEngine(cfg Config, variability bool) *core.Engine {
	nopt := netsim.Options{}
	if !variability {
		nopt = netsim.Options{GlitchMeanGap: -1, ProbeNoise: 1e-9}
	}
	e := core.NewEngine(core.WithOptions(core.Options{
		Seed:    cfg.Seed,
		Net:     nopt,
		Monitor: monitor.Options{Interval: 30 * time.Second},
		Params:  model.Default(),
		Shards:  cfg.Shards,
	}), core.WithObservability(observer()))
	return e
}

// deployedEngine returns a standard engine (variability as requested) with
// workersPerSite Medium workers deployed in every site.
func deployedEngine(cfg Config, variability bool, workersPerSite int) *core.Engine {
	e := newEngine(cfg, variability)
	e.DeployEverywhere(cloud.Medium, workersPerSite)
	return e
}

// parMap runs fn(i) for i in [0, n) on min(n, GOMAXPROCS) goroutines. Each
// invocation must be self-contained (own engine/scheduler); results must be
// written to pre-indexed slots so output order is deterministic.
//
// A panic inside any fn is recovered on its worker, remembered with the
// failing index, and re-raised from the calling goroutine after all workers
// drain — so a crashing experiment reports *which* task died instead of
// taking down the process from an anonymous goroutine (which would also skip
// the caller's deferred cleanup). When several tasks panic in one sweep, the
// lowest index deterministically wins. Tasks dispatched after the first
// panic are skipped: their results would be discarded anyway.
func parMap(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		mu        sync.Mutex
		failIdx   = -1
		failVal   any
		failStack []byte
	)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				skip := failIdx >= 0
				mu.Unlock()
				if skip {
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if failIdx < 0 || i < failIdx {
								failIdx, failVal, failStack = i, r, debug.Stack()
							}
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if failIdx >= 0 {
		panic(fmt.Sprintf("bench: parMap task %d panicked: %v\n%s", failIdx, failVal, failStack))
	}
}

// mb formats a byte count in whole megabytes for row labels.
func mb(bytes int64) string { return fmt.Sprintf("%dMB", bytes/(1<<20)) }

// pct renders a ratio as a signed percentage.
func pct(x float64) string { return fmt.Sprintf("%+.1f%%", 100*x) }

// runUntilDone drives a scheduler until the done predicate holds, stepping
// by step, with a hard bound on total virtual time.
func runUntilDone(s *simtime.Scheduler, done func() bool, step, bound time.Duration) bool {
	deadline := s.Now() + simtime.Time(bound)
	for !done() && s.Now() < deadline {
		s.RunFor(step)
	}
	return done()
}
