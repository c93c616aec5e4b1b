package core

import (
	"slices"

	"sage/internal/cloud"
	"sage/internal/obs"
	"sage/internal/resilience"
	"sage/internal/simtime"
	"sage/internal/stream"
	"sage/internal/transfer"
)

// This file wires the resilience subsystem into the engine: the jobGuard
// owns one resilient job's checkpointing, failure bookkeeping and recovery
// orchestration. It hangs off the one window path as commit-phase hooks
// gated on run.guard != nil — windows of a resilient job stage and commit
// like any other job's — so a job without a Resilience config executes the
// exact event sequence it always did.

// detector lazily creates the engine-wide heartbeat failure detector. The
// first resilient job's config fixes the shared heartbeat timing; later jobs
// join the same detector.
func (e *Engine) detector(cfg resilience.Config) *resilience.Detector {
	if e.det == nil {
		e.det = resilience.NewDetector(e.Sched, e.siteAlive, cfg)
		e.det.Start()
	}
	return e.det
}

// siteAlive is the engine's heartbeat probe: a site answers while any worker
// VM in its deployment pool is up. Sites without a deployment carry no job
// state, so they count as alive.
func (e *Engine) siteAlive(site cloud.SiteID) bool {
	pool := e.Mgr.Pool(site)
	for _, n := range pool {
		if !n.Failed() {
			return true
		}
	}
	return len(pool) == 0
}

// poolAlive reports whether a site has a deployment with at least one
// healthy VM — the requirement for hosting a failed-over sink.
func (e *Engine) poolAlive(site cloud.SiteID) bool {
	for _, n := range e.Mgr.Pool(site) {
		if !n.Failed() {
			return true
		}
	}
	return false
}

// jobGuard orchestrates one resilient job: it keeps the batch log and
// acknowledgement bookkeeping, takes periodic checkpoints, and reacts to the
// detector's dead/alive transitions with transfer resumption, gap replay and
// sink failover.
type jobGuard struct {
	e   *Engine
	run *JobRun
	cfg resilience.Config
	det *resilience.Detector
	met resilience.Metrics

	ckptTick *simtime.Ticker
	ckptSeq  int
	// ckpt encodes the rounds and holds the latest encoding (Last), the one
	// recovery decodes. A round reuses its big storage: ckptCells takes the
	// sink's cell snapshots, and ckptCells[:globalCells] is the global
	// answer's snapshot. globalStale marks it out of date, which only a window
	// completion or a failover makes it; until then a round neither retakes
	// the snapshot nor encodes it again.
	ckpt        resilience.Encoder
	ckptCells   []stream.KeyCell
	globalCells int
	globalStale bool
	// first is the start of the job's first window: where the completion
	// frontier starts walking.
	first simtime.Time

	// Per-source bookkeeping, indexed by source slot. In-flight transfers
	// are not tracked here: run.live is the one list.
	// log is the source's batch log: its shipped partials in window order,
	// each kept for replay until the trim behind the completion frontier.
	log    [][]*partial
	acked  []map[simtime.Time]bool // window ever delivered to a sink
	parked [][]parkedWindow        // staged windows whose commit waits for recovery

	// completed marks windows fully merged into the CURRENT sink's Global
	// (reset to the checkpoint's set on failover); counted marks windows
	// already counted in the report (never reset).
	completed map[simtime.Time]bool
	counted   map[simtime.Time]bool

	// recovering tracks re-shipped windows per source until they land, which
	// bounds the recovery-time measurement.
	recovering     []map[simtime.Time]bool
	recoveryStart  simtime.Time
	recoveryActive bool

	stopped bool
}

// parkedWindow is a window staged on time whose commit found the source's
// site declared dead.
type parkedWindow struct {
	end simtime.Time
	st  stagedWindow
}

func newJobGuard(e *Engine, run *JobRun, cfg resilience.Config, first simtime.Time) *jobGuard {
	cfg = cfg.WithDefaults()
	g := &jobGuard{
		e:           e,
		run:         run,
		cfg:         cfg,
		det:         e.detector(cfg),
		first:       first,
		completed:   make(map[simtime.Time]bool),
		counted:     make(map[simtime.Time]bool),
		globalStale: true,
	}
	n := len(run.srcs)
	g.log = make([][]*partial, n)
	g.acked = make([]map[simtime.Time]bool, n)
	g.parked = make([][]parkedWindow, n)
	g.recovering = make([]map[simtime.Time]bool, n)
	for i := range run.srcs {
		g.acked[i] = make(map[simtime.Time]bool)
		g.recovering[i] = make(map[simtime.Time]bool)
	}
	for _, s := range run.srcs {
		g.det.Watch(s.spec.Site)
	}
	g.det.Watch(run.job.Sink)
	g.det.OnTransition(g.onTransition)
	if cfg.CheckpointInterval > 0 {
		g.ckptTick = e.Sched.NewTicker(cfg.CheckpointInterval, func(simtime.Time) { g.checkpoint() })
	}
	return g
}

// stop ends checkpointing and makes every later hook and detector transition
// a no-op; called when the run is finalized or cancelled.
func (g *jobGuard) stop() {
	g.stopped = true
	if g.ckptTick != nil {
		g.ckptTick.Stop()
	}
}

// finish stops the guard and returns the final metrics; called from
// JobRun.finalize.
func (g *jobGuard) finish() *resilience.Metrics {
	g.stop()
	m := g.met
	return &m
}

// emit puts one resilience fact of the job on the engine's event spine.
func (g *jobGuard) emit(ev obs.Event) {
	ev.At, ev.Job = g.e.Sched.Now(), g.run.id
	g.e.Obs.Emit(ev)
}

// ---- engine hooks ----------------------------------------------------------

// park is the commit-phase gate: while the source's site is declared dead
// the already-staged window is parked (true) and commits, in order, on
// recovery.
func (g *jobGuard) park(s *sourceState, end simtime.Time, st stagedWindow) bool {
	if !g.stopped && g.det.State(s.spec.Site) == resilience.Dead {
		g.parked[s.idx] = append(g.parked[s.idx], parkedWindow{end: end, st: st})
		return true
	}
	return false
}

// logPartial retains a newly committed partial in its source's batch log.
// The log keeps the record, and with it the closed aggregate itself: nothing
// writes it, and only the trim that drops the record lets it go.
func (g *jobGuard) logPartial(p *partial) {
	p.logged = true
	g.log[p.s.idx] = append(g.log[p.s.idx], p)
}

// noteArrive updates delivery bookkeeping when a partial lands; it returns
// true when the delivery is a duplicate the sink must not merge again.
func (g *jobGuard) noteArrive(s *sourceState, ws *windowState, bytes int64) bool {
	i := s.idx
	start := ws.window.Start
	if g.run.windows[start] != ws {
		// The window state was rebuilt by a failover after this delivery was
		// dispatched; whatever it carried is accounted against the old sink.
		g.met.DuplicateBytes += bytes
		g.doneRecovering(i, start)
		return true
	}
	if ws.from == nil {
		ws.from = make(map[int]bool)
	}
	if ws.from[i] {
		g.met.DuplicateBytes += bytes
		g.doneRecovering(i, start)
		return true
	}
	if g.acked[i][start] {
		// First delivery to the CURRENT sink, but a previous sink had it:
		// the work is duplicated even though the merge is needed.
		g.met.DuplicateBytes += bytes
	}
	ws.from[i] = true
	g.acked[i][start] = true
	g.doneRecovering(i, start)
	return false
}

// noteComplete reports whether a completing window should be counted in the
// report (false for re-collections after a failover). The window has just
// merged into the global answer.
func (g *jobGuard) noteComplete(start simtime.Time) bool {
	g.globalStale = true
	g.completed[start] = true
	if g.counted[start] {
		return false
	}
	g.counted[start] = true
	return true
}

// noteSkipped credits ledger-resumption savings.
func (g *jobGuard) noteSkipped(bytes int64) { g.met.SkippedBytes += bytes }

// ---- checkpointing ---------------------------------------------------------

// checkpoint snapshots the job's distributed state, serializes it (the
// encoded form is what recovery decodes — the serialization is exercised on
// every cycle), and trims batch logs behind the completion frontier. Only
// the ticker runs it, and stop stops the ticker.
func (g *jobGuard) checkpoint() {
	// A checkpoint is a coordinated snapshot: every current participant —
	// the sources and the acting sink — must contribute state, so the round
	// is skipped while any of them is declared dead. This is what makes the
	// interval matter: a failure invalidates every round since the last
	// completed one.
	for _, s := range g.run.srcs {
		if g.det.State(s.spec.Site) == resilience.Dead {
			return
		}
	}
	if g.det.State(g.run.sink) == resilience.Dead {
		return
	}
	g.ckptSeq++
	sameGlobal := !g.globalStale // read before the build retakes the snapshot
	b := g.ckpt.Encode(g.buildCheckpoint(), sameGlobal)
	g.met.Checkpoints++
	g.met.CheckpointBytes += int64(len(b))
	g.met.LastCheckpointBytes = int64(len(b))
	cutoff := g.completionFrontier()
	for i, log := range g.log {
		g.log[i] = trimLog(log, cutoff)
	}
	g.emit(obs.Event{Kind: obs.EvCheckpoint, Site: string(g.run.sink), Bytes: int64(len(b)), ID: uint64(g.ckptSeq)})
}

// trimLog drops the partials of a batch log that end at or before cutoff,
// oldest first, and returns what is left. Each dropped partial is released
// as it leaves: the trim is its last reader unless a ship of it is still live
// or held — a replay that duplicates a delivery its window completed with.
// The compaction zeroes the slots it vacates, so the log keeps no reference
// to a dropped partial.
func trimLog(log []*partial, cutoff simtime.Time) []*partial {
	n := 0
	for n < len(log) && log[n].Window.End <= cutoff {
		log[n].logged = false
		log[n].release()
		n++
	}
	return slices.Delete(log, 0, n)
}

// completionFrontier returns the largest time T such that every window of
// the job ending at or before T has globally completed — batch-log entries
// behind it are re-derivable from the checkpoint and safe to drop. The walk
// starts at the job's first window, which is at virtual time 0 only for a
// job started on a fresh engine.
func (g *jobGuard) completionFrontier() simtime.Time {
	w := simtime.Time(g.run.job.Window)
	t := g.first
	for g.completed[t] {
		t += w
	}
	return t
}

func (g *jobGuard) buildCheckpoint() *resilience.Checkpoint {
	ck := &resilience.Checkpoint{Seq: g.ckptSeq, At: g.e.Sched.Now(),
		Sources: make([]resilience.SourceState, 0, len(g.run.srcs))}
	for i, s := range g.run.srcs {
		ss := resilience.SourceState{Site: s.spec.Site, Index: i}
		ss.Acked = g.currentAcked(i)
		for _, p := range g.run.liveOf(i) {
			ss.Ledgers = append(ss.Ledgers, resilience.WindowLedger{
				Start: p.Window.Start, Ledger: p.h.Ledger(),
			})
		}
		ck.Sources = append(ck.Sources, ss)
	}
	ck.Sink.Site = g.run.sink
	ck.Sink.Completed = sortedTimes(g.completed)
	// The sink's cells go into one scratch buffer that lives across rounds:
	// the checkpoint is encoded before the next round overwrites it. (A list
	// taken before the buffer grew keeps pointing at the old array, which
	// still holds its cells.) The global answer's snapshot leads it and is
	// retaken only after the answer changed: a round between two window
	// completions finds the last round's.
	cells := g.ckptCells[:g.globalCells]
	if g.globalStale {
		cells = g.run.rep.Global.AppendSnapshot(cells[:0])
		g.globalCells, g.globalStale = len(cells), false
	}
	ck.Sink.Global = cells
	for _, start := range sortedTimes(g.run.windows) {
		ws := g.run.windows[start]
		if g.completed[start] || ws.arrived == 0 {
			continue
		}
		p := resilience.PartialWindow{Start: ws.window.Start, End: ws.window.End}
		for idx := range ws.from {
			p.Sources = append(p.Sources, idx)
		}
		slices.Sort(p.Sources)
		from := len(cells)
		cells = ws.merged.AppendSnapshot(cells)
		p.Cells = cells[from:]
		ck.Sink.Partial = append(ck.Sink.Partial, p)
	}
	g.ckptCells = cells
	return ck
}

// currentAcked lists the windows whose partial from source i the CURRENT
// sink holds: completed windows plus checkpointable partial arrivals.
func (g *jobGuard) currentAcked(i int) []simtime.Time {
	out := make([]simtime.Time, 0, len(g.completed)+1)
	for start := range g.completed {
		out = append(out, start)
	}
	for start, ws := range g.run.windows {
		if ws.from[i] && !g.completed[start] {
			out = append(out, start)
		}
	}
	slices.Sort(out)
	return out
}

// decodeCkpt deserializes the latest checkpoint (nil when none was taken —
// recovery then restores from nothing and replays the full retained log).
func (g *jobGuard) decodeCkpt() *resilience.Checkpoint {
	if g.ckpt.Last() == nil {
		return nil
	}
	ck, err := resilience.DecodeCheckpoint(g.ckpt.Last())
	if err != nil {
		g.lostCkpt(err)
		return nil
	}
	return ck
}

// decodeSources is decodeCkpt for a source transition, which reads only the
// sources' entries: the same checks, without building the sink's cells.
func (g *jobGuard) decodeSources() []resilience.SourceState {
	if g.ckpt.Last() == nil {
		return nil
	}
	srcs, err := resilience.DecodeSources(g.ckpt.Last())
	if err != nil {
		g.lostCkpt(err)
		return nil
	}
	return srcs
}

// lostCkpt reports a checkpoint that failed to decode: a corrupt checkpoint
// is equivalent to having none.
func (g *jobGuard) lostCkpt(err error) {
	g.emit(obs.Event{Kind: obs.EvCheckpointLost, Site: string(g.run.sink), Note: err.Error()})
}

// ---- failure handling ------------------------------------------------------

func (g *jobGuard) onTransition(site cloud.SiteID, from, to resilience.SiteState) {
	if g.stopped {
		return
	}
	switch {
	case to == resilience.Dead:
		g.onDead(site)
	case to == resilience.Alive && from == resilience.Dead:
		g.onRecover(site)
	}
}

// onDead reacts to a site being declared dead: its in-flight transfers are
// aborted, and if it hosted the sink the meta-reducer fails over
// immediately. Its operators hold no window between stages, so their memory
// dying with the site loses nothing the batch log cannot replay.
func (g *jobGuard) onDead(site cloud.SiteID) {
	g.met.Failures++
	if lat := g.det.DetectLatency(site); lat > g.met.DetectTime {
		g.met.DetectTime = lat
	}
	g.e.Monitor.PauseSite(site)
	g.emit(obs.Event{Kind: obs.EvSiteFail, Site: string(site), Dur: g.det.DetectLatency(site)})
	for i, s := range g.run.srcs {
		if s.spec.Site != site {
			continue
		}
		g.abortInflight(i)
	}
	if site == g.run.sink {
		g.failover(site)
	}
}

// abortInflight kills source i's live transfers, recording their progress
// on the partial: whatever the last checkpoint did not capture becomes
// duplicate work when the window is re-sent. Ships a preemption is holding
// are dropped the same way — a held partial the trim has not dropped is in
// the batch log, so recovery re-ships it.
func (g *jobGuard) abortInflight(i int) {
	for _, p := range g.run.liveOf(i) {
		p.abortAcked, _ = p.h.Progress()
		g.e.Mgr.Abort(p.h)
		g.run.untrack(p)
		g.run.inflight--
		p.release()
	}
	g.run.dropHeld(i)
}

// ckptSource returns source i's entry among a checkpoint's sources (nil
// without one).
func ckptSource(srcs []resilience.SourceState, i int) *resilience.SourceState {
	for j := range srcs {
		if srcs[j].Index == i {
			return &srcs[j]
		}
	}
	return nil
}

// onRecover replays a returned source site back to consistency: interrupted
// transfers resume from their checkpointed ledgers, un-acknowledged retained
// windows re-ship, and the windows parked during downtime commit in order.
func (g *jobGuard) onRecover(site cloud.SiteID) {
	now := g.e.Sched.Now()
	g.met.Recoveries++
	g.e.Monitor.ResumeSite(site)
	g.emit(obs.Event{Kind: obs.EvSiteRecover, Site: string(site)})
	srcs := g.decodeSources()
	for i, s := range g.run.srcs {
		if s.spec.Site != site {
			continue
		}
		g.recoverSource(i, s, srcs, now)
	}
}

func (g *jobGuard) recoverSource(i int, s *sourceState, ckSrcs []resilience.SourceState, now simtime.Time) {
	ckAcked := make(map[simtime.Time]bool)
	ckLed := make(map[simtime.Time]transfer.Ledger)
	if ss := ckptSource(ckSrcs, i); ss != nil {
		for _, t := range ss.Acked {
			ckAcked[t] = true
		}
		for _, wl := range ss.Ledgers {
			ckLed[wl.Start] = wl.Ledger
		}
	}
	g.startRecovery(now)
	// Replay every retained window the checkpoint does not prove delivered.
	// The sink deduplicates re-deliveries; the re-sent bytes are the
	// duplicate-work price of checkpoint staleness.
	for _, p := range g.log[i] {
		if ckAcked[p.Window.Start] {
			p.abortAcked = 0
			continue
		}
		var resume *transfer.Ledger
		if led, ok := ckLed[p.Window.Start]; ok && led.To == g.run.sink {
			// Resume the interrupted transfer from its last checkpointed
			// acknowledgement; progress beyond the ledger is re-sent.
			resume = &led
		}
		g.reship(p, resume)
	}
	// Commit the windows parked during downtime, in order: they were staged
	// on time, so the generator's draw sequence — and the replayed stream —
	// is byte-identical to an unfailed run's.
	parked := g.parked[i]
	g.parked[i] = nil
	for _, p := range parked {
		g.met.ReplayedWindows++
		g.markRecovering(i, p.st.start)
		g.e.commitWindow(g.run, s, p.end, p.st)
	}
}

// reship replays one logged partial: its aggregate ships again as it is, at
// the size measured when it was committed. Whatever its aborted ship had
// delivered beyond resume (the checkpointed ledger; nil: nothing) is
// duplicate work.
func (g *jobGuard) reship(p *partial, resume *transfer.Ledger) {
	wasted := p.abortAcked
	p.abortAcked = 0
	if resume != nil {
		wasted -= resume.AckedBytes()
		g.met.ResumedTransfers++
	}
	if wasted > 0 {
		g.met.DuplicateBytes += wasted
	}
	g.markRecovering(p.s.idx, p.Window.Start)
	g.met.ReplayedWindows++
	g.met.ReplayedEvents += int64(p.events)
	g.e.ship(g.run, p, resume)
}

// ---- sink failover ---------------------------------------------------------

// failover re-elects the meta-reducer after the sink site died: the
// widest-path planner picks the site every source can still reach fastest,
// sink state restores from the last checkpoint, and the alive sources
// re-ship whatever the checkpoint cannot vouch for.
func (g *jobGuard) failover(oldSink cloud.SiteID) {
	now := g.e.Sched.Now()
	run := g.run
	// Everything in flight was heading to a dead receiver.
	for i := range g.run.srcs {
		g.abortInflight(i)
	}
	var sourceSites []cloud.SiteID
	for _, s := range g.run.srcs {
		sourceSites = append(sourceSites, s.spec.Site)
	}
	exclude := func(c cloud.SiteID) bool {
		return c == oldSink || g.det.State(c) != resilience.Alive || !g.e.poolAlive(c)
	}
	newSink, ok := resilience.PlanFailover(g.e.Mgr.RouteGraph(), g.e.Net.Topology(), sourceSites, exclude)
	if !ok {
		g.emit(obs.Event{Kind: obs.EvFailoverStall, Site: string(oldSink)})
		return
	}
	run.sink = newSink
	g.det.Watch(newSink) // the replacement sink can fail too
	g.met.Failovers++
	g.emit(obs.Event{Kind: obs.EvFailover, Site: string(oldSink), Peer: string(newSink)})

	// Restore the sink's merged state from the last checkpoint; whatever it
	// misses is re-collected below.
	ck := g.decodeCkpt()
	global := run.newSinkAgg()
	completed := make(map[simtime.Time]bool)
	run.windows = make(map[simtime.Time]*windowState)
	if ck != nil {
		for _, c := range ck.Sink.Global {
			global.RestoreCell(c)
		}
		for _, t := range ck.Sink.Completed {
			completed[t] = true
		}
		for _, p := range ck.Sink.Partial {
			ws := &windowState{
				window: stream.Window{Start: p.Start, End: p.End},
				merged: run.newSinkAgg(),
				from:   make(map[int]bool),
			}
			for _, c := range p.Cells {
				ws.merged.RestoreCell(c)
			}
			for _, idx := range p.Sources {
				ws.from[idx] = true
			}
			ws.arrived = len(p.Sources)
			run.windows[p.Start] = ws
		}
	}
	run.rep.Global = global
	g.globalStale = true
	g.completed = completed

	// Alive sources re-ship retained windows the checkpoint does not prove
	// completed (a dead source replays on its own recovery).
	g.startRecovery(now)
	for i, s := range g.run.srcs {
		if g.det.State(s.spec.Site) != resilience.Alive {
			continue
		}
		for _, p := range g.log[i] {
			start := p.Window.Start
			if g.completed[start] {
				continue
			}
			if ws := run.windows[start]; ws != nil && ws.from[i] {
				continue // the checkpoint carried this partial across
			}
			g.reship(p, nil)
		}
	}
}

// ---- recovery-time measurement --------------------------------------------

func (g *jobGuard) startRecovery(now simtime.Time) {
	if !g.recoveryActive {
		g.recoveryActive = true
		g.recoveryStart = now
	}
}

func (g *jobGuard) markRecovering(i int, start simtime.Time) {
	g.recovering[i][start] = true
}

func (g *jobGuard) doneRecovering(i int, start simtime.Time) {
	if !g.recoveryActive {
		return
	}
	delete(g.recovering[i], start)
	for j := range g.recovering {
		if len(g.recovering[j]) > 0 {
			return
		}
	}
	g.recoveryActive = false
	g.met.RecoveryTime += g.e.Sched.Now() - g.recoveryStart
	g.emit(obs.Event{Kind: obs.EvBacklogDrained, Site: string(g.run.sink), Dur: g.e.Sched.Now() - g.recoveryStart})
}

// sortedTimes returns a map's simtime keys in ascending order.
func sortedTimes[V any](m map[simtime.Time]V) []simtime.Time {
	out := make([]simtime.Time, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}
