// Package apiv1 is SAGE's versioned public wire surface: the JSON types a
// client exchanges with the saged control plane and the sagesim CLI. Every
// codec in the repo — `sagesim -scenario/-jobs-file`, the scenario package,
// and the daemon's /api/v1 endpoints — encodes and decodes through the types
// in this package, so the declarative file format and the HTTP API cannot
// drift apart. The package is deliberately dependency-light: wire types and
// their codecs only; building and running worlds from a Roster lives in
// internal/scenario.
//
// Versioning contract: fields may be added (decoders must tolerate absent
// fields), never renamed or retyped. A breaking change mints api/v2.
package apiv1

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// Duration wraps time.Duration with human-readable JSON ("30s", "5m").
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("apiv1: bad duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// Roster is a complete run description: the world (topology, weather,
// deployments), the workload (exactly one of a single job, a gather, or a
// multi-job roster), and timed fault injections. It is the document
// `sagesim -scenario/-jobs-file` reads and `POST /api/v1/jobs` accepts.
type Roster struct {
	// Name labels the run in reports.
	Name string `json:"name"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Topology selects the cloud map: "default" (6 EU/US sites) or
	// "world" (9 sites incl. Asia and Brazil).
	Topology string `json:"topology,omitempty"`
	// Weather selects link variability: "default", "calm" (no glitches)
	// or "rough" (frequent deep glitches).
	Weather string `json:"weather,omitempty"`
	// CrossTraffic enables background tenant flows with the given mean
	// inter-arrival gap per link (e.g. "30s"). Empty disables.
	CrossTraffic Duration `json:"cross_traffic,omitempty"`
	// Workers deploys VMs: class name -> count per site (default
	// {"Medium": 8}).
	Workers map[string]int `json:"workers,omitempty"`
	// Job describes the streaming job (exactly one of Job/Gather/Jobs).
	Job *JobConfig `json:"job,omitempty"`
	// Gather describes a file-collection run.
	Gather *GatherConfig `json:"gather,omitempty"`
	// Jobs describes a multi-job roster run under the admission scheduler:
	// every job shares one world and contends for links and VM slots.
	Jobs []MultiJobConfig `json:"jobs,omitempty"`
	// Scheduler configures admission for a Jobs roster.
	Scheduler *SchedulerConfig `json:"scheduler,omitempty"`
	// Injections are timed faults.
	Injections []Injection `json:"injections,omitempty"`
	// Warmup is monitoring time before the workload (default 1m).
	Warmup Duration `json:"warmup,omitempty"`
}

// JobConfig mirrors core.JobSpec declaratively.
type JobConfig struct {
	Sources  []SourceConfig `json:"sources"`
	Sink     string         `json:"sink"`
	Window   Duration       `json:"window"`
	Agg      string         `json:"agg"`      // count|sum|mean|min|max
	Strategy string         `json:"strategy"` // direct|parallel|envaware|widest|multipath
	Lanes    int            `json:"lanes,omitempty"`
	Intr     float64        `json:"intrusiveness,omitempty"`
	ShipRaw  bool           `json:"ship_raw,omitempty"`
	Budget   float64        `json:"budget_per_window,omitempty"`
	Deadline Duration       `json:"deadline_per_window,omitempty"`
	Duration Duration       `json:"duration"`
	// CheckpointInterval enables the resilience subsystem: operator state
	// checkpoints at this virtual-time interval, site failures are detected
	// by heartbeat and recovered by replay/failover. Empty disables.
	CheckpointInterval Duration `json:"checkpoint_interval,omitempty"`
}

// MultiJobConfig is one roster entry: a streaming job plus the scheduling
// metadata the admission queue orders it by.
type MultiJobConfig struct {
	JobConfig
	// Name labels the job in the multi-job report (default "jobN").
	Name string `json:"name,omitempty"`
	// Tenant groups jobs for fair-share accounting (default: the name).
	Tenant string `json:"tenant,omitempty"`
	// Priority orders admission classes; with scheduler.preempt a running
	// high-priority job pauses lower-priority jobs' transfers.
	Priority int `json:"priority,omitempty"`
	// Arrival is the submission instant, offset from scheduler start.
	Arrival Duration `json:"arrival,omitempty"`
}

// SchedulerConfig mirrors sched.Options declaratively.
type SchedulerConfig struct {
	MaxConcurrent int      `json:"max_concurrent,omitempty"`
	Policy        string   `json:"policy,omitempty"` // fifo|fair|sjf
	Tick          Duration `json:"tick,omitempty"`
	Preempt       bool     `json:"preempt,omitempty"`
}

// SourceConfig declares one event source.
type SourceConfig struct {
	Site string  `json:"site"`
	Rate float64 `json:"rate"` // events/second
	Keys int     `json:"keys,omitempty"`
	Skew float64 `json:"skew,omitempty"`
	// DiurnalAmplitude, when > 0, modulates the rate over a 24h period.
	DiurnalAmplitude float64 `json:"diurnal_amplitude,omitempty"`
}

// GatherConfig mirrors core.GatherSpec declaratively.
type GatherConfig struct {
	Sites     []string `json:"sites"`
	Files     int      `json:"files"`
	FileBytes int64    `json:"file_bytes"`
	Sink      string   `json:"sink"`
	Strategy  string   `json:"strategy"`
	Lanes     int      `json:"lanes,omitempty"`
	Intr      float64  `json:"intrusiveness,omitempty"`
}

// Injection is a timed fault.
type Injection struct {
	At Duration `json:"at"`
	// Kind: "link_scale" (scale From->To by Factor), "kill_node" (kill the
	// Nth worker of site From), "restore_node", "kill_site" (fail every
	// worker at site From), "restore_site".
	Kind   string  `json:"kind"`
	From   string  `json:"from"`
	To     string  `json:"to,omitempty"`
	Factor float64 `json:"factor,omitempty"`
	Node   int     `json:"node,omitempty"`
}

// DecodeRoster parses a roster document strictly (see decodeStrict), so typos
// in config files and API bodies fail loudly instead of silently running a
// different experiment. It performs no semantic validation — that is
// scenario.Validate's job.
func DecodeRoster(r io.Reader) (*Roster, error) {
	var s Roster
	if err := decodeStrict(r, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeClockAction parses a POST /api/v1/clock body as strictly as
// DecodeRoster parses a roster, and refuses any action but "pause" and
// "resume".
func DecodeClockAction(r io.Reader) (ClockAction, error) {
	var a ClockAction
	if err := decodeStrict(r, &a); err != nil {
		return ClockAction{}, err
	}
	if a.Action != "pause" && a.Action != "resume" {
		return ClockAction{}, fmt.Errorf("apiv1: clock action must be \"pause\" or \"resume\", got %q", a.Action)
	}
	return a, nil
}

// decodeStrict decodes the one JSON value r holds into v. It refuses unknown
// fields and anything but white space after the value; an error reading past
// the value (a body over its size limit) is returned wrapped.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("apiv1: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == nil:
		return errors.New("apiv1: more than one JSON value")
	case err != io.EOF:
		return fmt.Errorf("apiv1: after the JSON value: %w", err)
	}
	return nil
}

// EncodeRoster writes a roster document as indented JSON.
func EncodeRoster(w io.Writer, s *Roster) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
