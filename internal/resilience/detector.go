package resilience

import (
	"fmt"
	"time"

	"sage/internal/cloud"
	"sage/internal/monitor"
	"sage/internal/simtime"
)

// SiteState is the detector's health verdict for one site.
type SiteState int

// The detector states. A site starts Alive, moves to Suspect after
// suspectMisses consecutive missed heartbeats, to Dead after DeadMisses, and
// back to Alive on the first answered heartbeat.
const (
	Alive SiteState = iota
	Suspect
	Dead
)

// String implements fmt.Stringer.
func (s SiteState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("SiteState(%d)", int(s))
	}
}

// HeartbeatFunc answers whether a site currently responds to a heartbeat.
// The engine wires this to the transfer manager's deployment pools: a site
// beats while any of its worker VMs is up.
type HeartbeatFunc func(cloud.SiteID) bool

// TransitionFunc observes detector state changes.
type TransitionFunc func(site cloud.SiteID, from, to SiteState)

// Detector is the heartbeat-based failure detector. It polls every watched
// site on a fixed virtual-time interval, records the outcomes through the
// monitor's sample-history machinery, and notifies subscribers of
// alive/suspect/dead transitions. Like the rest of the simulator it is
// single-threaded: all calls happen on the scheduler's goroutine.
type Detector struct {
	sched *simtime.Scheduler
	beat  HeartbeatFunc
	cfg   Config
	order []cloud.SiteID
	sites map[cloud.SiteID]*siteHealth
	subs  []TransitionFunc
	tick  *simtime.Ticker
}

type siteHealth struct {
	state     SiteState
	misses    int
	firstMiss simtime.Time
	detectLat time.Duration
	history   *monitor.History
}

// NewDetector builds a detector; call Watch for each site of interest and
// Start to begin polling.
func NewDetector(sched *simtime.Scheduler, beat HeartbeatFunc, cfg Config) *Detector {
	if beat == nil {
		panic("resilience: heartbeat func must not be nil")
	}
	return &Detector{
		sched: sched,
		beat:  beat,
		cfg:   cfg.WithDefaults(),
		sites: make(map[cloud.SiteID]*siteHealth),
	}
}

// Watch adds a site to the poll set; watching a site twice is a no-op.
// Sites are polled in watch order, which is deterministic because jobs
// register their sites in spec order.
func (d *Detector) Watch(site cloud.SiteID) {
	if _, ok := d.sites[site]; ok {
		return
	}
	d.sites[site] = &siteHealth{history: monitor.NewHistory(heartbeatHistory)}
	d.order = append(d.order, site)
}

// OnTransition subscribes to state changes; subscribers run in registration
// order, synchronously from Poll.
func (d *Detector) OnTransition(fn TransitionFunc) { d.subs = append(d.subs, fn) }

// Start begins periodic polling; starting a started detector is a no-op.
func (d *Detector) Start() {
	if d.tick != nil {
		return
	}
	d.tick = d.sched.NewTicker(d.cfg.HeartbeatInterval, func(simtime.Time) { d.Poll() })
}

// Poll runs one heartbeat round over every watched site. It is exported so
// tests (and recovery orchestration needing an immediate verdict) can force
// a round outside the ticker.
func (d *Detector) Poll() {
	now := d.sched.Now()
	for _, site := range d.order {
		h := d.sites[site]
		ok := d.beat(site)
		v := 0.0
		if ok {
			v = 1.0
		}
		h.history.Add(monitor.Sample{Value: v, At: now})
		if ok {
			h.misses = 0
			if h.state != Alive {
				d.transition(site, h, Alive)
			}
			continue
		}
		if h.misses == 0 {
			h.firstMiss = now
		}
		h.misses++
		if h.state == Alive && h.misses >= suspectMisses {
			d.transition(site, h, Suspect)
		}
		if h.state == Suspect && h.misses >= DeadMisses {
			// Modeled detection latency: the failure happened at most one
			// interval before the first missed beat.
			h.detectLat = (now - h.firstMiss) + d.cfg.HeartbeatInterval
			d.transition(site, h, Dead)
		}
	}
}

func (d *Detector) transition(site cloud.SiteID, h *siteHealth, to SiteState) {
	from := h.state
	h.state = to
	for _, fn := range d.subs {
		fn(site, from, to)
	}
}

// State returns the current verdict for a site (Alive for unwatched sites —
// no evidence against them).
func (d *Detector) State(site cloud.SiteID) SiteState {
	if h, ok := d.sites[site]; ok {
		return h.state
	}
	return Alive
}

// History returns the heartbeat sample ring of a watched site (1 = answered,
// 0 = missed), or nil for unwatched sites.
func (d *Detector) History(site cloud.SiteID) *monitor.History {
	if h, ok := d.sites[site]; ok {
		return h.history
	}
	return nil
}

// DetectLatency returns the modeled failure→Dead latency of the site's most
// recent Dead declaration (0 if never declared dead).
func (d *Detector) DetectLatency(site cloud.SiteID) time.Duration {
	if h, ok := d.sites[site]; ok {
		return h.detectLat
	}
	return 0
}
