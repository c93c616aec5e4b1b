package monitor

import (
	"fmt"
	"time"

	"sage/internal/cloud"
	"sage/internal/netsim"
	"sage/internal/obs"
	"sage/internal/simtime"
)

// History is a fixed-capacity ring buffer of samples, oldest first when
// listed. The monitoring agent records history both for operator inspection
// (profiling an application's cloud behaviour) and as the base data for
// self-healing decisions. Its storage grows by doubling, up to the capacity,
// as samples arrive: a link probed a few times holds a few samples.
type History struct {
	buf   []Sample
	limit int // the capacity: buf never holds more
	next  int
	total int
}

// NewHistory returns a ring holding up to capacity samples.
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		panic("monitor: history capacity must be positive")
	}
	return &History{limit: capacity}
}

// Add appends a sample, evicting the oldest when full.
func (h *History) Add(s Sample) {
	switch {
	case len(h.buf) == h.limit:
		h.buf[h.next] = s
		h.next = (h.next + 1) % h.limit
	case len(h.buf) == cap(h.buf):
		grown := make([]Sample, len(h.buf), min(max(2*cap(h.buf), 4), h.limit))
		copy(grown, h.buf)
		h.buf = append(grown, s)
	default:
		h.buf = append(h.buf, s)
	}
	h.total++
}

// Len returns the number of retained samples.
func (h *History) Len() int { return len(h.buf) }

// Total returns the number of samples ever added.
func (h *History) Total() int { return h.total }

// Samples returns the retained samples oldest-first.
func (h *History) Samples() []Sample {
	return h.AppendTo(make([]Sample, 0, len(h.buf)))
}

// AppendTo appends the retained samples oldest-first to dst and returns the
// extended slice — the zero-allocation variant of Samples for polling
// callers that reuse a scratch buffer across rounds.
func (h *History) AppendTo(dst []Sample) []Sample {
	if len(h.buf) == h.limit {
		dst = append(dst, h.buf[h.next:]...)
		dst = append(dst, h.buf[:h.next]...)
	} else {
		dst = append(dst, h.buf...)
	}
	return dst
}

// LinkKey identifies a directed inter-site link.
type LinkKey struct{ From, To cloud.SiteID }

func (k LinkKey) String() string { return fmt.Sprintf("%s>%s", k.From, k.To) }

// LinkState is the tracked state of one link: the live estimator plus the
// retained sample history.
type LinkState struct {
	Key       LinkKey
	Estimator Estimator
	History   *History
	// paused is a depth count, not a flag: probe/estimate state is
	// world-scoped and shared by every job on the engine, so concurrent
	// jobs (or a job's guard plus a scheduler preemption) may pause the
	// same link independently. The link resumes probing only when every
	// pauser has resumed.
	paused int
}

// Each link keeps a history ring of historySize samples, and Start takes
// learningProbes immediate back-to-back probes per link: the "initial
// learning phase".
const (
	historySize    = 512
	learningProbes = 3
)

// Options configures the monitoring service.
type Options struct {
	// Interval between probes of each link (default 30s). The paper's
	// non-intrusiveness requirement is expressed here: probing is periodic
	// and suspendable, not continuous.
	Interval time.Duration
	// Factory builds the per-link estimator (default WSI).
	Factory Factory
	// Obs, when non-nil, receives one event per probe, carrying the link's
	// estimate after the sample.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 30 * time.Second
	}
	if o.Factory == nil {
		o.Factory = DefaultFactory
	}
	return o
}

// Service is the monitoring agent: it probes every inter-site link of the
// topology on a fixed interval and maintains per-link estimators and
// histories. Probing a link can be paused while a transfer runs on it (the
// transfer itself is a better throughput sample, and probes would be
// intrusive).
type Service struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	opt   Options
	links map[LinkKey]*LinkState
	order []LinkKey
	tick  *simtime.Ticker
	// onChange are the estimate-change subscribers, invoked after every
	// sample folded into a link estimator (see OnEstimateChange).
	onChange []func(from, to cloud.SiteID)
}

// NewService builds a monitoring service over every directed link in the
// network's topology. Call Start to begin probing.
func NewService(net *netsim.Network, opt Options) *Service {
	opt = opt.withDefaults()
	s := &Service{
		sched: net.Scheduler(),
		net:   net,
		opt:   opt,
		links: make(map[LinkKey]*LinkState),
	}
	for _, l := range net.Topology().Links() {
		k := LinkKey{l.From, l.To}
		s.links[k] = &LinkState{
			Key:       k,
			Estimator: opt.Factory(),
			History:   NewHistory(historySize),
		}
		s.order = append(s.order, k)
	}
	return s
}

// OnEstimateChange registers a subscriber called with the link pair after
// every sample observed on a link (probe or transfer feedback) — the
// notification hook incremental planners use for dirty-edge tracking
// instead of re-reading the full n² estimate matrix. Estimator means move
// on essentially every sample, so the hook does not compare means; it
// reports "this pair may have changed" and lets the subscriber deduplicate.
// Subscribers run synchronously on the observing goroutine and must be
// cheap and must not call back into the Service.
func (s *Service) OnEstimateChange(fn func(from, to cloud.SiteID)) {
	s.onChange = append(s.onChange, fn)
}

// notifyChange fans one estimate change out to the subscribers.
func (s *Service) notifyChange(k LinkKey) {
	for _, fn := range s.onChange {
		fn(k.From, k.To)
	}
}

// Start performs the initial learning phase and begins periodic probing.
// Calling Start twice panics.
func (s *Service) Start() {
	if s.tick != nil {
		panic("monitor: Start called twice")
	}
	for i := 0; i < learningProbes; i++ {
		s.probeAll()
	}
	s.tick = s.sched.NewTicker(s.opt.Interval, func(simtime.Time) { s.probeAll() })
}

func (s *Service) probeAll() {
	for _, k := range s.order {
		st := s.links[k]
		if st.paused > 0 {
			continue
		}
		v := s.net.Probe(k.From, k.To)
		sm := Sample{Value: v, At: s.sched.Now()}
		st.Estimator.Observe(sm)
		st.History.Add(sm)
		s.notifyChange(k)
		s.opt.Obs.Emit(obs.Event{Kind: obs.EvProbe, At: sm.At,
			Site: string(k.From), Peer: string(k.To), Value: st.Estimator.Mean()})
	}
}

// PauseSite suspends probing of every link that touches the site (one pause
// depth per link). The resilience detector calls it when a site is declared
// dead: probing a dead site wastes intrusiveness budget and would only feed
// the estimators zeroes.
func (s *Service) PauseSite(site cloud.SiteID) { s.setSitePaused(site, 1) }

// ResumeSite undoes one PauseSite. Pauses are counted per link, so two jobs'
// guards pausing the same dead site resume it only after both recover — the
// historical flag semantics silently un-paused every other job's links.
func (s *Service) ResumeSite(site cloud.SiteID) { s.setSitePaused(site, -1) }

func (s *Service) setSitePaused(site cloud.SiteID, delta int) {
	for _, k := range s.order {
		if k.From != site && k.To != site {
			continue
		}
		st := s.links[k]
		st.paused += delta
		if st.paused < 0 {
			st.paused = 0
		}
	}
}

func (s *Service) state(from, to cloud.SiteID) *LinkState {
	st, ok := s.links[LinkKey{from, to}]
	if !ok {
		panic(fmt.Sprintf("monitor: unknown link %s -> %s", from, to))
	}
	return st
}

// ObserveTransfer feeds an achieved-throughput measurement from a real
// transfer into the link's estimator — the mechanism by which transfer
// progress substitutes for probes.
func (s *Service) ObserveTransfer(from, to cloud.SiteID, mbps float64) {
	if from == to {
		return
	}
	st, ok := s.links[LinkKey{from, to}]
	if !ok {
		return
	}
	sm := Sample{Value: mbps, At: s.sched.Now()}
	st.Estimator.Observe(sm)
	st.History.Add(sm)
	s.notifyChange(LinkKey{from, to})
}

// Estimate returns the current (mean, stddev) throughput estimate for a
// directed link in MB/s. Before any sample it returns (0, 0); intra-site
// pairs return the topology constant.
func (s *Service) Estimate(from, to cloud.SiteID) (mean, stddev float64) {
	if from == to {
		return s.net.Topology().IntraMBps, 0
	}
	st, ok := s.links[LinkKey{from, to}]
	if !ok {
		return 0, 0
	}
	return st.Estimator.Mean(), st.Estimator.Stddev()
}

// State exposes the tracked state of a link for reports and tests.
func (s *Service) State(from, to cloud.SiteID) *LinkState { return s.state(from, to) }
