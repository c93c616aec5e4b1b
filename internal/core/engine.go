// Package core is SAGE's engine: it runs streaming analysis jobs whose
// sources are scattered across cloud datacenters, aggregating locally at
// each site, shipping windowed partial results over the wide area with a
// cost/time-aware transfer strategy, and merging them at a sink site (the
// meta-reducer). It ties together the monitoring, modeling, routing and
// transfer subsystems.
//
// The engine's scheduling loop is the paper-level contribution: for every
// closed window at every source site it consults the monitor's current
// throughput estimate, sizes the transfer (number of worker lanes or the
// multipath node budget) with the cost/time model — optionally inverting a
// per-window monetary budget — and dispatches the partial through the
// transfer service, which adapts to the environment while the data moves.
package core

import (
	"fmt"
	"runtime"
	"time"

	"sage/internal/cloud"
	"sage/internal/model"
	"sage/internal/monitor"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/resilience"
	"sage/internal/rng"
	"sage/internal/simtime"
	"sage/internal/stats"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

// Engine hosts jobs on a simulated geo-distributed cloud.
type Engine struct {
	Sched   *simtime.Scheduler
	Net     *netsim.Network
	Monitor *monitor.Service
	Mgr     *transfer.Manager
	Params  model.Params
	// Calib accumulates (lanes, duration) observations per source site for
	// online gain refitting (used when JobSpec.Calibrate is set).
	Calib *Calibrator
	// Obs is the event spine every engine fact is emitted on (nil: the
	// layer is off).
	Obs *obs.Observer
	// det is the engine-wide heartbeat failure detector, created lazily by
	// the first resilient job (its config sets the shared heartbeat timing).
	det *resilience.Detector
	// shard is the two-phase (stage → commit) executor every source window
	// goes through; with one shard it fuses both phases into a plain
	// scheduler event, otherwise it has shardsPerWorker executor shards per
	// stage worker. nextShard is the executor shard the next new generator
	// is dealt, round-robin across every job the engine starts.
	shard     *simtime.Sharded
	nextShard int
	// scratch[i] is the working memory of executor shard i's stages. A
	// shard runs one stage at a time, so the stages of every source dealt
	// to it, across jobs, take turns with it.
	scratch []stageScratch
	// nextJob numbers job runs in Start order. The first job on an engine
	// is job 0, so single-job traces and metrics are indistinguishable from
	// the pre-multi-job format.
	nextJob int
}

// Shards returns the engine's shard count, Options.Shards after its default:
// how many stage workers run at once (1 = fully sequential core).
func (e *Engine) Shards() int { return e.shard.Workers() }

// ShardRounds returns how many staging barrier rounds the parallel executor
// ran (0 for a sequential engine) — a cheap proof that sharding engaged.
func (e *Engine) ShardRounds() uint64 { return e.shard.Rounds() }

// GainFor returns the gain used for planning transfers out of a site: the
// calibrated value when enough observations exist, the static parameter
// otherwise.
func (e *Engine) GainFor(site cloud.SiteID) float64 {
	if g, ok := e.Calib.Gain(site, e.Sched.Now()); ok {
		return g
	}
	return e.Params.Gain
}

// Options configures engine construction.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Topology defaults to cloud.DefaultAzure().
	Topology *cloud.Topology
	// Net, Monitor, Transfer tune the subsystems; zero values take their
	// package defaults.
	Net      netsim.Options
	Monitor  monitor.Options
	Transfer transfer.Options
	// Params is the cost/time model calibration (default model.Default()).
	Params model.Params
	// Obs, when non-nil, receives every engine fact — metrics, timeline
	// spans and whatever subscribers it carries (a trace, an audit log) —
	// and wires its registry through every subsystem. Simulation behavior
	// is identical with and without it.
	Obs *obs.Observer
	// Shards is the event-core shard count: how many stage workers run at
	// once; 0 means runtime.GOMAXPROCS(0), one per core. With Shards > 1
	// the engine deals each source's generator round-robin to one of
	// shardsPerWorker·Shards executor shards and stages the pure half of
	// each window — event generation, mapping, local aggregation —
	// concurrently, the workers claiming executor shards one at a time,
	// under a conservative lookahead barrier derived from the topology's
	// minimum WAN RTT, while commits (transfer dispatch, sink merge,
	// reporting) replay in exact sequential order. Output is byte-identical
	// for every shard count. 1 keeps the fused single-threaded core.
	Shards int
}

// NewEngine wires a full SAGE stack and starts monitoring. It takes
// functional options: NewEngine(WithSeed(3), WithObservability(ob)), or
// NewEngine(WithOptions(opt)) for a pre-built Options carrier.
func NewEngine(opts ...Option) *Engine {
	var opt Options
	for _, apply := range opts {
		apply(&opt)
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Topology == nil {
		opt.Topology = cloud.DefaultAzure()
	}
	if opt.Params.Class.Name == "" {
		opt.Params = model.Default()
	}
	sched := simtime.New()
	root := rng.New(opt.Seed)
	opt.Net.Obs = opt.Obs
	net := netsim.New(sched, opt.Topology, root, opt.Net)
	opt.Monitor.Obs = opt.Obs
	mon := monitor.NewService(net, opt.Monitor)
	mon.Start()
	opt.Transfer.Params = opt.Params
	opt.Transfer.Obs = opt.Obs
	mgr := transfer.NewManager(net, mon, opt.Transfer)
	e := &Engine{Sched: sched, Net: net, Monitor: mon, Mgr: mgr,
		Params: opt.Params, Calib: NewCalibrator(), Obs: opt.Obs}
	lookahead := simtime.Time(opt.Topology.MinWANRTT())
	if lookahead <= 0 {
		lookahead = simtime.Time(10 * time.Millisecond)
	}
	if opt.Shards == 0 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	shards := opt.Shards
	if shards > 1 {
		shards *= shardsPerWorker
	}
	e.shard = simtime.NewShardedWorkers(sched, shards, opt.Shards, lookahead)
	e.scratch = make([]stageScratch, e.shard.Shards())
	return e
}

// stageScratch is a stage's working memory: the one block of drawn events,
// refilled across blocks, windows and sources.
type stageScratch struct {
	block stream.Block
}

// shardsPerWorker is how many executor shards the engine deals generators to
// for each stage worker. The workers claim a round's shard runs one at a
// time, so the finer the deal, the less a worker whose core the host takes
// away mid-round holds the barrier up: at one shard per worker the round
// waits for that worker's whole half, at eight it waits for one run while
// the other worker stages the rest. Eight puts serve_roster's 15 live
// sources on 16 shards, nearly one each.
const shardsPerWorker = 8

// DeployEverywhere provisions an identical pool in every site.
func (e *Engine) DeployEverywhere(class cloud.VMClass, n int) {
	for _, id := range e.Net.Topology().SiteIDs() {
		e.Mgr.Deploy(id, class, n)
	}
}

// SourceSpec describes one stream source site.
type SourceSpec struct {
	Site cloud.SiteID
	// Rate is the event rate over time (events/second).
	Rate workload.RateFunc
	// Gen produces the events (default: sensor generator with 100 keys).
	Gen *workload.SensorGen
	// EventBytes is the serialized size of one raw event, used when the
	// job ships raw events instead of partials (default DefaultEventBytes).
	EventBytes int64
}

// The sizes a job ships: DefaultEventBytes is a raw event's when its source
// sets none, PartialOverheadBytes the fixed envelope around every partial.
const (
	DefaultEventBytes    = 200
	PartialOverheadBytes = 1024
)

// JobSpec describes a geo-distributed streaming job.
type JobSpec struct {
	Sources []SourceSpec
	// Sink is the meta-reducer site.
	Sink cloud.SiteID
	// Window is the tumbling window width.
	Window time.Duration
	// Agg is the keyed aggregation applied locally and merged globally.
	Agg stream.AggKind
	// Map optionally filters events and rewrites their values before
	// aggregation. It sees an event's key and value; an event stays in the
	// window it was drawn in and in its key's cell. It runs in the stage half
	// of a window, so on an engine with more than one shard (the default on
	// a multi-core host) it may be called concurrently for different
	// sources: it must be pure, or guard any state it shares across sources.
	// Each source calls it in its own draw order.
	Map stream.MapFunc
	// ShipRaw disables local aggregation: every raw event is shipped to
	// the sink (the centralized baseline). Default false — SAGE mode.
	ShipRaw bool
	// Strategy is the wide-area transfer strategy for partials.
	Strategy transfer.Strategy
	// Lanes / MaxPaths / Intr parameterize transfers (see
	// transfer.Request).
	Lanes, MaxPaths int
	Intr            float64
	// BudgetPerWindow, when positive, lets the cost model choose the node
	// count each window: the largest count whose predicted cost stays
	// within the budget.
	BudgetPerWindow float64
	// DeadlinePerWindow, when positive, lets the model choose the
	// *smallest* node count whose predicted transfer time meets the
	// deadline — the cheapest configuration that is fast enough. Mutually
	// exclusive with BudgetPerWindow.
	DeadlinePerWindow time.Duration
	// Calibrate enables online gain calibration: the engine refits the
	// parallel-speedup slope per source site from its own transfer log and
	// uses the fitted value in budget/deadline sizing.
	Calibrate bool
	// Lossy ships partials as sender-paced datagrams without
	// acknowledgements: window latency becomes deterministic
	// (bytes/estimated rate) at the price of losing whatever the network
	// drops. Report.BytesLost and MeanLoss quantify the damage. Lossy
	// ignores Strategy.
	Lossy bool
	// Resilience, when non-nil, arms the resilience subsystem for this job:
	// heartbeat failure detection, periodic checkpointing, transfer
	// resumption, batch-log gap replay and sink failover. Nil (the default)
	// leaves the engine's behavior bit-for-bit identical to a build without
	// the subsystem.
	Resilience *resilience.Config
}

// check rejects a spec no engine can run, naming the field.
func (j *JobSpec) check() error {
	if len(j.Sources) == 0 {
		return &SpecError{Field: "Sources", Reason: "job needs at least one source"}
	}
	if j.Window <= 0 {
		return &SpecError{Field: "Window", Reason: "job needs a positive window"}
	}
	if j.Sink == "" {
		return &SpecError{Field: "Sink", Reason: "job needs a sink site"}
	}
	for i := range j.Sources {
		if j.Sources[i].Rate == nil {
			return specErrorf(fmt.Sprintf("Sources[%d].Rate", i), "source has no rate")
		}
	}
	if j.BudgetPerWindow > 0 && j.DeadlinePerWindow > 0 {
		return &SpecError{Field: "BudgetPerWindow",
			Reason: "mutually exclusive with DeadlinePerWindow"}
	}
	return nil
}

// withDefaults fills the fields a spec may leave zero.
func (j *JobSpec) withDefaults() {
	for i := range j.Sources {
		if j.Sources[i].EventBytes <= 0 {
			j.Sources[i].EventBytes = DefaultEventBytes
		}
	}
	if j.Lanes <= 0 {
		j.Lanes = 2
	}
}

// SiteWindow reports one site's partial for one window.
type SiteWindow struct {
	Site     cloud.SiteID
	Window   stream.Window
	Events   int
	Keys     int
	Bytes    int64
	Lanes    int
	Transfer time.Duration
	Cost     float64
}

// Report summarizes a finished job run.
type Report struct {
	// Windows is the number of globally completed windows.
	Windows int
	// Incomplete counts windows whose partials never all arrived within
	// the grace period.
	Incomplete int
	// Latencies holds, per completed window, the time from window close to
	// the arrival of its last partial at the sink.
	Latencies []time.Duration
	// LatencySummary summarizes Latencies in seconds.
	LatencySummary stats.Summary
	// SiteWindows details every shipped partial.
	SiteWindows []SiteWindow
	// TotalEvents, TotalBytes, TotalCost aggregate the run.
	TotalEvents int64
	TotalBytes  int64
	TotalCost   float64
	// BytesLost and MeanLoss quantify datagram losses for lossy jobs
	// (always zero for acknowledged transport).
	BytesLost int64
	MeanLoss  float64
	// EgressCost is the egress component of TotalCost; the remainder is
	// leased VM time. The fair-share scheduler bills tenants by it.
	EgressCost float64
	// VMSeconds is the accumulated VM-seconds leased for transfers:
	// Σ nodes×duration over every shipped partial.
	VMSeconds float64
	// Global is the merged aggregate over every completed window — the
	// analysis answer.
	Global *stream.KeyedAgg
	// Resilience reports what the resilience machinery did, when the job
	// enabled it (nil otherwise).
	Resilience *resilience.Metrics
}

// sourceState is the engine's per-source runtime.
type sourceState struct {
	spec SourceSpec
	idx  int // slot in JobSpec.Sources: the source's identity
	// shard is the executor shard that runs this source's stages: the one
	// its generator was dealt at Start, shared by every source drawing from
	// that generator.
	shard int
	gen   *workload.SensorGen
	// pool supplies each staged window's aggregate, dense over gen.Table(),
	// and takes it back once the window's partial has no reader left
	// (partial.release).
	pool *stream.AggPool
	// spans map gen.Table()'s IDs to the sink table's, fixed at Start: the
	// sink merges this source's partials through them, by index
	// (stream.KeyedAgg.MergeMapped).
	spans   []stream.Span
	shipped int // partials shipped, drives calibration exploration
	// pending queues staged window results (appended by the source's stage
	// on its shard goroutine, consumed FIFO by commits on the scheduler
	// goroutine; the staging barrier orders the two).
	pending     []stagedWindow
	pendingHead int
}

// takeStaged pops the oldest staged window: stages append in the order
// commits consume.
func (s *sourceState) takeStaged() stagedWindow {
	st := s.pending[s.pendingHead]
	s.pendingHead++
	if s.pendingHead == len(s.pending) {
		s.pending, s.pendingHead = s.pending[:0], 0
	}
	return st
}

// stagedWindow is the output of one window's stage phase: everything the
// pure, shard-parallel half of window processing produces for the
// sequential commit half to ship and account.
type stagedWindow struct {
	start simtime.Time
	// agg is the window's partial: every kept event of the window, folded.
	agg  *stream.KeyedAgg
	kept int
	// bytes is agg's serialized size, measured during staging so the
	// O(keys) scan parallelizes; 0 when the job ships raw events.
	bytes int64
}

// partial is the one record of one source's closed window partial, made by
// the commit that closes the window. Every reader points to it: the ship and
// its arrival, the live transfer (JobRun.live), a preemption's hold
// (JobRun.held), a resilient job's batch log and every replay from the log.
// At most one ship of a partial is outstanding — a replay or a resume follows
// the abort, drop or hold of the ship before — so the per-ship state lives
// here too.
type partial struct {
	window stream.Window
	agg    *stream.KeyedAgg
	s      *sourceState
	events int
	// bytes is the wire size measured at the commit (serialized or raw, plus
	// PartialOverheadBytes). The aggregate is not written after its window
	// closed, so every replay and resume ships the same size.
	bytes  int64
	logged bool // in its source's batch log (jobGuard.log)
	// h is the acknowledged transfer carrying it while it is in JobRun.live.
	h *transfer.Handle
	// held marks it parked in JobRun.held by a preemption; resume is the held
	// ship's ledger (nil: it was never dispatched, ship from scratch).
	held   bool
	resume *transfer.Ledger
	// abortAcked is what its last aborted ship had delivered: the replay
	// charges whatever its resume point does not cover as duplicate work.
	abortAcked int64
}

// release returns the partial's aggregate to its source's pool once nothing
// reads it: not logged, not live and not held. Each reader calls it as it
// lets go, so the last one files the aggregate.
func (p *partial) release() {
	if !p.logged && p.h == nil && !p.held {
		p.s.pool.Put(p.agg)
	}
}

// windowState tracks global completion of one window at the sink.
type windowState struct {
	window  stream.Window
	arrived int
	// merged accumulates the arrived partials; it goes back to the job's sink
	// pool once the window completes (significant at 10^6-key scale, where
	// each merged aggregate holds a cell per key).
	merged *stream.KeyedAgg
	// from marks which source slots have delivered this window — maintained
	// only for resilient jobs, where replays can re-deliver a partial the
	// sink already merged.
	from map[int]bool
}

// JobRun is a started job. Multiple jobs may run concurrently on one
// engine, competing for the same links and worker pools; drive them with
// Engine.Wait.
type JobRun struct {
	job       JobSpec
	rep       *Report
	windows   map[simtime.Time]*windowState
	inflight  int
	processed int
	expected  int
	finalized bool
	// id numbers the run on its engine (Start order, first job 0).
	id int
	// completedAt is the virtual time Done() first became true (0 until
	// then): the job's precise finish for multi-job completion accounting.
	completedAt simtime.Time
	// live lists the partials an acknowledged transfer is carrying:
	// checkpoint ledgers, abort-on-death, preemption and cancellation all
	// read it. held queues the partials whose ships were deferred while the
	// job's transfers are paused; each held entry owns one provisional
	// inflight count.
	live       []*partial
	held       []*partial
	xferPaused bool
	// cancelled marks a run withdrawn by Engine.CancelJob: its remaining
	// window closes and ships become no-ops and it is Done immediately.
	cancelled bool
	// sink is the current meta-reducer site: JobSpec.Sink until a failover
	// re-elects it.
	sink cloud.SiteID
	// complete fires when a window's last partial lands at the sink.
	complete func(*windowState, simtime.Time)
	// guard is the job's resilience orchestrator (nil when disabled): a set
	// of commit-phase hooks, never a different window path.
	guard *jobGuard
	// srcs are the run's sources, in JobSpec.Sources order.
	srcs []*sourceState
	// sinkPool holds the sink-side merge aggregates (per-window merged state,
	// the global answer, and whatever a failover rebuilds from a
	// checkpoint), dense over the union of every source generator's interned
	// keys, built at Start: they index cells instead of hashing strings. A
	// window's merged table returns to it once the window completes.
	sinkPool *stream.AggPool
}

// newSinkAgg returns an empty sink-side aggregate over the union key table.
func (r *JobRun) newSinkAgg() *stream.KeyedAgg { return r.sinkPool.Get() }

// Done reports whether all windows have been processed and every partial
// has landed.
func (r *JobRun) Done() bool { return r.processed >= r.expected && r.inflight == 0 }

// finalize computes the report's derived fields.
func (r *JobRun) finalize() *Report {
	if r.finalized {
		return r.rep
	}
	r.finalized = true
	r.rep.Incomplete = 0
	for _, ws := range r.windows {
		if ws.arrived < len(r.job.Sources) {
			r.rep.Incomplete++
		}
	}
	r.rep.LatencySummary = stats.Summarize(stats.Durations(r.rep.Latencies))
	if r.rep.TotalBytes > 0 {
		r.rep.MeanLoss = float64(r.rep.BytesLost) / float64(r.rep.TotalBytes)
	}
	if r.guard != nil {
		r.rep.Resilience = r.guard.finish()
	}
	return r.rep
}

// Run executes the job for the given stream duration of virtual time, then
// grants a grace period for in-flight partials, and reports. The engine
// owns the scheduler during the call. For concurrent jobs use Start and
// Wait.
func (e *Engine) Run(job JobSpec, dur time.Duration) (*Report, error) {
	run, err := e.Start(job, dur)
	if err != nil {
		return nil, err
	}
	return e.Wait(dur, run)[0], nil
}

// Wait drives the simulation for the stream duration plus a bounded grace
// period until every given run completes, then returns their finalized
// reports in order.
func (e *Engine) Wait(dur time.Duration, runs ...*JobRun) []*Report {
	e.Sched.RunFor(dur)
	allDone := func() bool {
		for _, r := range runs {
			if !r.Done() {
				return false
			}
		}
		return true
	}
	for grace := 0; !allDone() && grace < 10000; grace++ {
		e.Sched.RunFor(time.Second)
	}
	out := make([]*Report, len(runs))
	for i, r := range runs {
		out[i] = r.finalize()
	}
	return out
}

// ValidateSpec reports the error Start would return for the spec — a
// *SpecError for invalid fields — without starting anything. Control planes
// use it to reject a bad job at submission time instead of poisoning the
// scheduler at admission time.
func (e *Engine) ValidateSpec(job JobSpec) error {
	if err := job.check(); err != nil {
		return err
	}
	topo := e.Net.Topology()
	if topo.Site(job.Sink) == nil {
		return specErrorf("Sink", "unknown sink %q", job.Sink)
	}
	for i, src := range job.Sources {
		if topo.Site(src.Site) == nil {
			return specErrorf(fmt.Sprintf("Sources[%d].Site", i), "unknown source site %q", src.Site)
		}
	}
	return nil
}

// Start schedules a job's window processing without driving the clock.
func (e *Engine) Start(job JobSpec, dur time.Duration) (*JobRun, error) {
	if err := e.ValidateSpec(job); err != nil {
		return nil, err
	}
	job.withDefaults()
	run := &JobRun{
		job:     job,
		windows: make(map[simtime.Time]*windowState),
		sink:    job.Sink,
		id:      e.nextJob,
	}
	e.nextJob++
	e.Obs.Emit(obs.Event{Kind: obs.EvJobStart, At: e.Sched.Now(), Job: run.id})

	srcs := make([]*sourceState, len(job.Sources))
	genRoot := rng.New(77)
	// Each new generator is dealt the next shard, so a job's sources spread
	// evenly whatever sites they sit on. Sources drawing from one generator
	// share a shard, so the shard's (time, seq) stage order is the
	// generator's draw order at any shard count.
	genShard := make(map[*workload.SensorGen]int, len(job.Sources))
	gens := make([]*workload.SensorGen, len(job.Sources))
	for i, spec := range job.Sources {
		gen := spec.Gen
		if gen == nil {
			gen = workload.NewSensorGen(genRoot.Split("src/"+string(spec.Site)), spec.Site, workload.SensorOpts{})
		}
		if _, shared := genShard[gen]; !shared {
			genShard[gen] = e.nextShard
			e.nextShard = (e.nextShard + 1) % e.shard.Shards()
		}
		gens[i] = gen
		srcs[i] = &sourceState{
			spec:  spec,
			idx:   i,
			shard: genShard[gen],
			gen:   gen,
			// Dense cells over the generator's interned key table: the
			// fold does no string hashing.
			pool: stream.NewAggPool(job.Agg, gen.Table()),
		}
	}
	run.srcs = srcs
	// The sink merges each source's partials into the union table by index,
	// through the source's spans: no key string is looked up.
	sinkTable, spans := workload.KeyUnion(gens)
	run.sinkPool = stream.NewAggPool(job.Agg, sinkTable)
	for i, s := range srcs {
		s.spans = spans[i]
	}
	run.rep = &Report{Global: run.newSinkAgg()}
	rep := run.rep

	nWindows := int(dur / job.Window)
	run.expected = nWindows * len(srcs)

	// Window ends snap to the global tumbling grid: a job admitted off-grid
	// — a scheduler admitting into a freed slot mid-run — opens its first
	// window at the next grid boundary, so every job's windows, and the
	// window starts that key the sink's state and a checkpoint, line up with
	// every other job's. For jobs started on the grid (time zero, warmup
	// multiples) this is the identity.
	base := e.Sched.Now()
	if off := base % simtime.Time(job.Window); off != 0 {
		base += simtime.Time(job.Window) - off
	}

	run.complete = func(ws *windowState, at simtime.Time) {
		rep.Global.Merge(ws.merged)
		// Every source has delivered, so any later arrival for this window
		// state is a duplicate the guard drops before merging: the merged
		// table has had its last reader.
		run.sinkPool.Put(ws.merged)
		ws.merged = nil
		if run.guard != nil && !run.guard.noteComplete(ws.window.Start) {
			// Re-collection of a window already counted before a failover:
			// its contribution re-merged above, but the report counted it
			// the first time.
			return
		}
		rep.Windows++
		rep.Latencies = append(rep.Latencies, at-ws.window.End)
		e.Obs.Emit(obs.Event{Kind: obs.EvWindowDone, At: at, Dur: at - ws.window.End,
			Job: run.id, Site: string(run.sink), ID: uint64(ws.window.Start)})
	}

	if job.Resilience != nil {
		run.guard = newJobGuard(e, run, *job.Resilience, base)
	}

	// The one window path: every source window is a two-phase event on the
	// source's shard — a pure stage, then a commit in exact (time, seq)
	// order on the scheduler goroutine.
	for _, s := range srcs {
		for w := 1; w <= nWindows; w++ {
			end := base + simtime.Time(w)*simtime.Time(job.Window)
			e.shard.At(s.shard, end, func() {
				s.pending = append(s.pending, e.stageWindow(run, s, end))
			}, func() {
				e.commitWindow(run, s, end, s.takeStaged())
			})
		}
	}
	return run, nil
}

// stageBlock is how many events a stage draws before folding them. The block
// (two columns, 12 B an event: 12 KB) has to still be in cache when the
// aggregate reads back what the generator wrote, and be long enough to
// amortise the per-block calls. Now that a block is a fifth of the struct
// buffer it replaced, agg_wide no longer tells the sizes apart: over four
// alternating 6 s runs each, wall_s was 0.230–0.272 s at 512, 0.242–0.252 at
// 1024, 0.232–0.265 at 2048 and 0.243–0.251 at 4096 (medians 0.258 / 0.249 /
// 0.257 / 0.250), and peak RSS 106–113 / 106–108 / 109 / 112 MB. 1024 stays.
const stageBlock = 1024

// stageWindow is the pure half of one source's window close: draw the
// window's events a columnar block at a time and fold each block into the
// window's aggregate, one from the source's pool. A job's Map filters and
// rewrites each block in place before the fold, so every job folds through
// the one AddBlock: an event stays in the window it was drawn in. The stage
// touches only state owned by the source (its generator's streams, its pool)
// and by its shard (the block), never the clock, the network or the
// report — which is what makes it safe to run concurrently with other
// shards' stages under the conservative barrier. It may run up to one
// lookahead ahead of the commit clock; everything it makes is handed over in
// the staged window it returns, so the commit side never reads state a later
// stage is writing.
func (e *Engine) stageWindow(run *JobRun, s *sourceState, end simtime.Time) stagedWindow {
	job := run.job
	start := end - simtime.Time(job.Window)
	st := stagedWindow{start: start, agg: s.pool.Get()}
	n := workload.EventCount(s.spec.Rate, start, job.Window)
	if n > 0 {
		sc := &e.scratch[s.shard]
		// Blocks that start at multiples of the whole window's timestamp step
		// reproduce its timestamps and draw order exactly.
		step := job.Window / time.Duration(n)
		for i0 := 0; i0 < n; i0 += stageBlock {
			m := min(stageBlock, n-i0)
			s.gen.FillBlock(&sc.block, m, start+simtime.Time(i0)*step, step)
			if job.Map != nil {
				sc.block.Map(job.Map)
			}
			st.agg.AddBlock(&sc.block)
			st.kept += len(sc.block.IDs)
		}
	}
	if !job.ShipRaw {
		// Pre-size the partial here so the O(keys) serialization scan runs in
		// parallel instead of on the commit path.
		st.bytes = st.agg.SerializedBytes()
	}
	return st
}

// commitWindow is the sequential half: ship the window's partial, account
// the report and emit observability. It runs on the scheduler goroutine in
// exact (time, sequence) order for any shard count. Every window ships a
// partial, even one whose events were all filtered out: the sink must be
// able to tell "no data" from "site missing". An empty aggregate serializes
// to no bytes.
func (e *Engine) commitWindow(run *JobRun, s *sourceState, end simtime.Time, st stagedWindow) {
	if run.cancelled {
		// A cancelled run's remaining window closes are no-ops; expected was
		// clamped to processed at cancel time, so Done stays true.
		return
	}
	if run.guard != nil && run.guard.park(s, end, st) {
		// The source's site is down: the guard commits the staged window, in
		// order, on recovery.
		return
	}
	run.processed++
	e.ship(run, run.newPartial(s, stream.Window{Start: st.start, End: end}, st), nil)
	run.rep.TotalEvents += int64(st.kept)
	e.Obs.Emit(obs.Event{Kind: obs.EvWindowClose, At: end, Job: run.id,
		Site: string(s.spec.Site), Value: float64(st.kept), ID: uint64(st.start)})
	run.noteDone(e.Sched.Now())
}

// newPartial makes the record of source s's closed window w from what its
// stage made: the aggregate, sized from its serialized bytes as the stage
// measured them, or from its events for a job that ships them raw. A
// resilient job's batch log keeps the record from here on, so a held partial
// whose source or sink dies is re-shipped from the log.
func (r *JobRun) newPartial(s *sourceState, w stream.Window, st stagedWindow) *partial {
	p := &partial{window: w, agg: st.agg, s: s, events: st.kept, bytes: st.bytes}
	if r.job.ShipRaw {
		p.bytes = int64(st.kept) * s.spec.EventBytes
	}
	p.bytes += PartialOverheadBytes
	if r.guard != nil {
		r.guard.logPartial(p)
	}
	return p
}

// ship moves one closed window partial from its source site to the sink.
// resume, when non-nil, is the ledger of an interrupted transfer of the same
// partial — a preemption hold or a checkpoint — so delivery restarts from the
// last acknowledged chunk.
func (e *Engine) ship(run *JobRun, p *partial, resume *transfer.Ledger) {
	job := run.job
	rep := run.rep
	inflight := &run.inflight
	sink := run.sink
	s, w, agg, events := p.s, p.window, p.agg, p.events

	if run.cancelled {
		return
	}
	bytes := p.bytes
	if run.xferPaused {
		// The scheduler has preempted this job's transfers: park the ship
		// (with its resume ledger, if any) and keep one provisional inflight
		// count so Done() stays false until the held work replays.
		*inflight++
		p.held, p.resume = true, resume
		run.held = append(run.held, p)
		return
	}

	ws := run.windows[w.Start]
	if ws == nil {
		ws = &windowState{window: w, merged: run.newSinkAgg()}
		run.windows[w.Start] = ws
	}
	e.Obs.Emit(obs.Event{Kind: obs.EvPartialShipped, At: e.Sched.Now(), Job: run.id, Site: string(s.spec.Site)})

	arrive := func(tr time.Duration, lanes int, cost, egress float64) {
		rep.EgressCost += egress
		rep.VMSeconds += float64(lanes) * tr.Seconds()
		if run.guard != nil && run.guard.noteArrive(s, ws, bytes) {
			// Duplicate delivery: the sink already merged this partial (a
			// replay overlapped with what survived the failure). The bytes
			// and cost were still spent on the wire.
			rep.TotalBytes += bytes
			rep.TotalCost += cost
			return
		}
		ws.arrived++
		if ws.merged != nil {
			// Merged state is freed once the window completes; a partial
			// landing after that would be late data.
			ws.merged.MergeMapped(agg, s.spans)
		}
		e.Obs.Emit(obs.Event{Kind: obs.EvMerge, At: e.Sched.Now(), Job: run.id,
			Site: string(sink), Bytes: bytes, ID: uint64(w.Start)})
		rep.SiteWindows = append(rep.SiteWindows, SiteWindow{
			Site: s.spec.Site, Window: w,
			Events: events, Keys: agg.Keys(), Bytes: bytes,
			Lanes: lanes, Transfer: tr, Cost: cost,
		})
		rep.TotalBytes += bytes
		rep.TotalCost += cost
		// The sink merge is the partial's last reader unless a batch log
		// keeps it for replay (then the trim is, jobGuard.checkpoint). A
		// duplicate arrival reads nothing, so it files nothing either.
		p.release()
		if ws.arrived == len(job.Sources) {
			run.complete(ws, e.Sched.Now())
		}
	}

	if s.spec.Site == sink {
		// Local source: the partial is already at the meta-reducer.
		arrive(0, 0, 0, 0)
		return
	}

	if job.Lossy {
		// Datagram shipping: pace at the estimated link rate (bounded by
		// the intrusiveness NIC share), lose what the network drops.
		est := e.estimate(s.spec.Site, sink)
		if est < 0.5 {
			est = 0.5
		}
		*inflight++
		err := e.Mgr.SendDatagramJob(run.id, s.spec.Site, sink, bytes, est, func(dr transfer.DatagramResult) {
			*inflight--
			rep.BytesLost += dr.Offered - dr.Delivered
			arrive(dr.Duration, 2, dr.Cost, dr.EgressCost)
			run.noteDone(e.Sched.Now())
		})
		if err != nil {
			*inflight--
			run.noteDone(e.Sched.Now())
		}
		return
	}

	req := transfer.Request{
		From: s.spec.Site, To: sink, Size: bytes,
		Strategy: job.Strategy, Lanes: job.Lanes,
		MaxPaths: job.MaxPaths, Intr: job.Intr,
		Resume: resume,
		JobID:  run.id,
	}
	// Cost/time-aware sizing: invert the per-window budget or deadline into
	// a node count against the monitor's current estimate, using the
	// calibrated gain when available.
	if job.BudgetPerWindow > 0 || job.DeadlinePerWindow > 0 {
		est := e.estimate(s.spec.Site, sink)
		e.Obs.Emit(obs.Event{Kind: obs.EvEstimate, At: e.Sched.Now(), Job: run.id,
			Site: string(s.spec.Site), Peer: string(sink), Value: est, ID: uint64(w.Start)})
		p := e.Params
		if job.Intr > 0 {
			p.Intr = job.Intr
		}
		// The model's n counts parallel lanes; the multipath planner's
		// budget counts individual VMs (SitesPerLane per lane).
		apply := func(n int) {
			if job.Strategy == transfer.MultipathStatic || job.Strategy == transfer.MultipathDynamic {
				req.NodeBudget = n * model.SitesPerLane
			} else {
				req.Lanes = n
			}
			e.Obs.Emit(obs.Event{Kind: obs.EvModelSize, At: e.Sched.Now(), Job: run.id,
				Site: string(s.spec.Site), Peer: string(sink), Bytes: bytes, Lanes: n,
				ID: uint64(w.Start)})
		}
		explored := false
		if job.Calibrate {
			if g, ok := e.Calib.Gain(s.spec.Site, e.Sched.Now()); ok {
				p.Gain = g
			} else {
				// Exploration phase: no fit yet, so cycle lane counts to
				// generate the node-count diversity the fit needs. A few
				// early windows pay for calibrated sizing afterwards.
				apply(1 + s.shipped%4)
				explored = true
			}
		}
		if !explored {
			switch {
			case job.BudgetPerWindow > 0:
				if n, ok := p.NodesForBudget(bytes, est, job.BudgetPerWindow, 16); ok {
					apply(n)
				} else {
					req.Lanes = 1
					req.NodeBudget = 2
				}
			default:
				if n, ok := p.NodesForDeadline(bytes, est, job.DeadlinePerWindow, 16); ok {
					apply(n)
				} else {
					apply(16) // best effort: the deadline is unreachable
				}
			}
		}
	}
	s.shipped++
	*inflight++
	e.Obs.Emit(obs.Event{Kind: obs.EvDispatch, At: e.Sched.Now(), Job: run.id,
		Site: string(s.spec.Site), Peer: string(sink), Bytes: bytes, ID: uint64(w.Start)})
	// Freeze the dispatch-time prediction the delivery event reports beside
	// the outcome. Estimate is a pure read and the model arithmetic touches
	// no state, so it costs the simulation nothing.
	pred := e.Predict(s.spec.Site, sink, bytes, req.Lanes)
	lanes, size := req.Lanes, bytes
	var h *transfer.Handle
	var err error
	h, err = e.Mgr.Transfer(req, func(res transfer.Result) {
		*inflight--
		run.untrack(p)
		if job.Calibrate {
			e.Calib.RecordNormalized(s.spec.Site, e.Sched.Now(), lanes, res.Duration, res.Bytes)
		}
		if res.SkippedBytes > 0 {
			// Resumed transfer: the ledger spared these chunks the wire, so
			// only the remainder counts toward shipped bytes.
			bytes -= res.SkippedBytes
			if run.guard != nil {
				run.guard.noteSkipped(res.SkippedBytes)
			}
		}
		arrive(res.Duration, res.NodesUsed, res.Cost, res.EgressCost)
		e.Obs.Emit(obs.Event{Kind: obs.EvDelivered, At: e.Sched.Now(), Job: run.id,
			Site: string(s.spec.Site), Peer: string(sink), Bytes: size, Note: job.Strategy.String(),
			Lanes: lanes, Predicted: pred, Nodes: res.NodesUsed, Replans: res.Replans,
			Actual: obs.Outcome{MBps: res.MBps, Time: res.Duration, Cost: res.Cost}})
		// untrack dropped the record's reference to the handle, so the run
		// can return to the manager's pool for the next window.
		e.Mgr.Recycle(h)
		run.noteDone(e.Sched.Now())
	})
	if err != nil {
		*inflight--
		run.noteDone(e.Sched.Now())
		// A partial that cannot be shipped is lost; the window will be
		// reported incomplete.
		p.release()
		return
	}
	p.h = h
	run.live = append(run.live, p)
}

// estimate is the monitor's current rate estimate of the link from one site
// to another, or the link's baseline before the monitor has one (0 when
// there is no such link).
func (e *Engine) estimate(from, to cloud.SiteID) float64 {
	est, _ := e.Monitor.Estimate(from, to)
	if est <= 0 {
		if l := e.Net.Topology().Link(from, to); l != nil {
			est = l.BaseMBps
		}
	}
	return est
}

// Predict is the model's dispatch-time outcome for a bytes-sized transfer
// from one site to another on lanes lanes (0: one), at estimate's rate (1
// MB/s when there is neither an estimate nor a link). The dispatch path
// records it beside each delivery, and the multi-job scheduler sizes jobs
// with it.
func (e *Engine) Predict(from, to cloud.SiteID, bytes int64, lanes int) obs.Outcome {
	est := e.estimate(from, to)
	if est <= 0 {
		est = 1
	}
	n := max(lanes, 1)
	return obs.Outcome{MBps: est, Time: e.Params.TransferTime(bytes, est, n), Cost: e.Params.Cost(bytes, est, n)}
}
