// Package scenario gives the declarative run description (apiv1.Roster) its
// semantics: validation, world construction, and execution. The wire types
// themselves live in api/v1 — one codec shared by config files, the sagesim
// CLI and the saged HTTP API. This is the integration surface a downstream
// user scripts against: `sagesim -scenario run.json`, or
// `curl -d @run.json saged/api/v1/jobs`.
package scenario

import (
	"fmt"
	"io"
	"time"

	apiv1 "sage/api/v1"
	"sage/internal/cloud"
	"sage/internal/core"
	"sage/internal/netsim"
	"sage/internal/resilience"
	"sage/internal/rng"
	"sage/internal/sched"
	"sage/internal/stream"
	"sage/internal/transfer"
	"sage/internal/workload"
)

var aggKinds = map[string]stream.AggKind{
	"count": stream.Count, "sum": stream.Sum, "mean": stream.Mean,
	"min": stream.Min, "max": stream.Max,
}

var strategies = map[string]transfer.Strategy{
	"direct": transfer.Direct, "parallel": transfer.ParallelStatic,
	"envaware": transfer.EnvAware, "widest": transfer.WidestDynamic,
	"multipath": transfer.MultipathDynamic,
}

var classes = map[string]cloud.VMClass{
	"Small": cloud.Small, "Medium": cloud.Medium, "XLarge": cloud.XLarge,
}

// Load parses and validates a scenario from JSON.
func Load(r io.Reader) (*apiv1.Roster, error) {
	s, err := apiv1.DecodeRoster(r)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := Validate(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Validate checks the scenario's internal consistency.
func Validate(s *apiv1.Roster) error {
	modes := 0
	for _, set := range []bool{s.Job != nil, s.Gather != nil, len(s.Jobs) > 0} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("scenario %q: exactly one of job, gather or jobs required", s.Name)
	}
	if s.Scheduler != nil && len(s.Jobs) == 0 {
		return fmt.Errorf("scenario %q: scheduler requires a jobs roster", s.Name)
	}
	switch s.Topology {
	case "", "default", "world":
	default:
		return fmt.Errorf("scenario %q: unknown topology %q", s.Name, s.Topology)
	}
	switch s.Weather {
	case "", "default", "calm", "rough":
	default:
		return fmt.Errorf("scenario %q: unknown weather %q", s.Name, s.Weather)
	}
	for class := range s.Workers {
		if _, ok := classes[class]; !ok {
			return fmt.Errorf("scenario %q: unknown VM class %q", s.Name, class)
		}
	}
	if s.Job != nil {
		if err := validateJob(s, s.Job, "job"); err != nil {
			return err
		}
	}
	for i := range s.Jobs {
		mj := &s.Jobs[i]
		label := mj.Name
		if label == "" {
			label = fmt.Sprintf("jobs[%d]", i)
		}
		if err := validateJob(s, &mj.JobConfig, label); err != nil {
			return err
		}
		if mj.Arrival < 0 {
			return fmt.Errorf("scenario %q: %s has a negative arrival", s.Name, label)
		}
	}
	if s.Scheduler != nil {
		if _, ok := sched.ByName(s.Scheduler.Policy); !ok {
			return fmt.Errorf("scenario %q: unknown scheduler policy %q", s.Name, s.Scheduler.Policy)
		}
	}
	if s.Gather != nil {
		g := s.Gather
		if len(g.Sites) == 0 || g.Files <= 0 || g.FileBytes <= 0 || g.Sink == "" {
			return fmt.Errorf("scenario %q: gather needs sites, files, file_bytes, sink", s.Name)
		}
		if _, ok := strategies[g.Strategy]; !ok {
			return fmt.Errorf("scenario %q: unknown strategy %q", s.Name, g.Strategy)
		}
	}
	return validateInjections(s, topology(s))
}

// validateJob checks one job config, labelled for error messages.
func validateJob(s *apiv1.Roster, j *apiv1.JobConfig, label string) error {
	if len(j.Sources) == 0 || j.Sink == "" || j.Window <= 0 || j.Duration <= 0 {
		return fmt.Errorf("scenario %q: %s needs sources, sink, window, duration", s.Name, label)
	}
	if _, ok := aggKinds[j.Agg]; !ok {
		return fmt.Errorf("scenario %q: unknown agg %q", s.Name, j.Agg)
	}
	if _, ok := strategies[j.Strategy]; !ok {
		return fmt.Errorf("scenario %q: unknown strategy %q", s.Name, j.Strategy)
	}
	if j.Lanes < 0 {
		return fmt.Errorf("scenario %q: %s: negative lanes %d", s.Name, label, j.Lanes)
	}
	for i, src := range j.Sources {
		if src.Rate < 0 {
			return fmt.Errorf("scenario %q: %s: sources[%d]: negative rate %g", s.Name, label, i, src.Rate)
		}
		if src.Keys < 0 {
			return fmt.Errorf("scenario %q: %s: sources[%d]: negative keys %d", s.Name, label, i, src.Keys)
		}
	}
	return nil
}

// validateInjections checks each injection against topo, the world the
// scenario builds, and against the worker pool it deploys at every site: a
// link, site or node it does not have would make the injection panic when it
// fires, or do nothing.
func validateInjections(s *apiv1.Roster, topo *cloud.Topology) error {
	pool := 0
	for _, n := range workers(s) {
		pool += max(n, 0)
	}
	for i, inj := range s.Injections {
		switch inj.Kind {
		case "link_scale":
			if inj.From == "" || inj.To == "" || inj.Factor < 0 {
				return fmt.Errorf("scenario %q: injection %d invalid link_scale", s.Name, i)
			}
			if topo.Link(cloud.SiteID(inj.From), cloud.SiteID(inj.To)) == nil {
				return fmt.Errorf("scenario %q: injection %d: no link %s -> %s", s.Name, i, inj.From, inj.To)
			}
		case "kill_node", "restore_node", "kill_site", "restore_site":
			if inj.From == "" {
				return fmt.Errorf("scenario %q: injection %d needs a site", s.Name, i)
			}
			if topo.Site(cloud.SiteID(inj.From)) == nil {
				return fmt.Errorf("scenario %q: injection %d: unknown site %q", s.Name, i, inj.From)
			}
			if (inj.Kind == "kill_node" || inj.Kind == "restore_node") && (inj.Node < 0 || inj.Node >= pool) {
				return fmt.Errorf("scenario %q: injection %d: node %d is not in %s's pool of %d workers", s.Name, i, inj.Node, inj.From, pool)
			}
		default:
			return fmt.Errorf("scenario %q: unknown injection kind %q", s.Name, inj.Kind)
		}
	}
	return nil
}

// topology builds the scenario's world: the world-wide preset or the
// default Azure one.
func topology(s *apiv1.Roster) *cloud.Topology {
	if s.Topology == "world" {
		return cloud.WorldWide()
	}
	return cloud.DefaultAzure()
}

// workers returns the worker count per VM class that BuildEngine deploys at
// every site: the scenario's, or eight Medium VMs.
func workers(s *apiv1.Roster) map[string]int {
	if len(s.Workers) == 0 {
		return map[string]int{"Medium": 8}
	}
	return s.Workers
}

// Result is the outcome of a scenario run.
type Result struct {
	Name   string
	Report *core.Report       // for jobs
	Gather *core.GatherReport // for gathers
	Multi  *sched.MultiReport // for multi-job rosters
	// Engine is the world the run used: its network's egress counters,
	// its clock.
	Engine *core.Engine
}

// BuildEngine constructs the scenario's world: engine options from the
// topology/weather/cross-traffic presets, worker deployments, the monitor
// warm-up, and the timed fault injections. Extra engine options (a shard
// count, an observer carrying a trace or an audit log) compose on top. Run uses it; so does the
// saged daemon, which builds its world from the first posted roster through
// this exact path so daemon runs and batch runs are bit-identical.
func BuildEngine(s *apiv1.Roster, extra ...core.Option) *core.Engine {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	opt := core.Options{Seed: seed, Topology: topology(s)}
	switch s.Weather {
	case "calm":
		opt.Net = netsim.Options{GlitchMeanGap: -1}
	case "rough":
		opt.Net = netsim.Options{
			GlitchMeanGap: 3 * time.Minute, GlitchMeanDur: 90 * time.Second,
			GlitchDepthMin: 0.1, GlitchDepthMax: 0.4,
		}
	}
	if s.CrossTraffic > 0 {
		opt.Net.CrossTrafficMeanGap = time.Duration(s.CrossTraffic)
	}
	opts := append([]core.Option{core.WithOptions(opt)}, extra...)
	e := core.NewEngine(opts...)
	counts := workers(s)
	for _, class := range []string{"Small", "Medium", "XLarge"} {
		if n := counts[class]; n > 0 {
			e.DeployEverywhere(classes[class], n)
		}
	}
	warmup := time.Duration(s.Warmup)
	if warmup <= 0 {
		warmup = time.Minute
	}
	e.Sched.RunFor(warmup)

	for _, inj := range s.Injections {
		inj := inj
		e.Sched.After(time.Duration(inj.At), func() { applyInjection(e, inj) })
	}
	return e
}

// Run builds an engine, applies deployments and injections, executes the
// workload, and returns the outcome. Extra engine options (a shard count,
// an observer) compose on top of the scenario's world, as in BuildEngine.
func Run(s *apiv1.Roster, extra ...core.Option) (*Result, error) {
	if err := Validate(s); err != nil {
		return nil, err
	}
	e := BuildEngine(s, extra...)
	res := &Result{Name: s.Name, Engine: e}
	if s.Job != nil {
		job, err := BuildJob(s.Seed, s.Job, "scenario/")
		if err != nil {
			return nil, err
		}
		rep, err := e.Run(*job, time.Duration(s.Job.Duration))
		if err != nil {
			return nil, err
		}
		res.Report = rep
		return res, nil
	}
	if len(s.Jobs) > 0 {
		m, err := runJobs(s, e)
		if err != nil {
			return nil, err
		}
		res.Multi = m
		return res, nil
	}
	g := s.Gather
	var sites []cloud.SiteID
	for _, site := range g.Sites {
		sites = append(sites, cloud.SiteID(site))
	}
	rep, err := e.Gather(core.GatherSpec{
		Partials: workload.Partials{Sites: sites, Files: g.Files, FileBytes: g.FileBytes},
		Sink:     cloud.SiteID(g.Sink),
		Strategy: strategies[g.Strategy],
		Lanes:    g.Lanes,
		Intr:     g.Intr,
	})
	if err != nil {
		return nil, err
	}
	res.Gather = rep
	return res, nil
}

// SchedOptions converts a declarative scheduler block into sched.Options.
// A nil config yields the defaults. The policy name must have passed
// Validate; unknown names degrade to the default policy.
func SchedOptions(c *apiv1.SchedulerConfig) sched.Options {
	if c == nil {
		return sched.Options{}
	}
	pol, _ := sched.ByName(c.Policy)
	return sched.Options{
		MaxConcurrent: c.MaxConcurrent,
		Policy:        pol,
		Tick:          time.Duration(c.Tick),
		Preempt:       c.Preempt,
	}
}

// BuildSchedJobs converts roster entries into the scheduler's JobSpecs,
// applying the roster seed to the entries' generators, which share one
// population per source shape across the whole roster. base is the roster
// position of jobs[0]: it names anonymous entries ("jobN"), so names are
// stable across codecs.
func BuildSchedJobs(seed uint64, jobs []apiv1.MultiJobConfig, base int) []sched.JobSpec {
	gens := generators{}
	specs := make([]sched.JobSpec, len(jobs))
	for i := range jobs {
		mj := &jobs[i]
		name := mj.Name
		if name == "" {
			name = fmt.Sprintf("job%d", base+i)
		}
		specs[i] = sched.JobSpec{
			Name:     name,
			Tenant:   mj.Tenant,
			Priority: mj.Priority,
			Arrival:  time.Duration(mj.Arrival),
			Duration: time.Duration(mj.Duration),
			Spec:     *buildJob(seed, &mj.JobConfig, "scenario/"+name+"/", gens),
		}
	}
	return specs
}

// runJobs submits the roster to the admission scheduler and drives it to
// completion on the shared engine.
func runJobs(s *apiv1.Roster, e *core.Engine) (*sched.MultiReport, error) {
	sc := sched.New(e, SchedOptions(s.Scheduler))
	for _, spec := range BuildSchedJobs(s.Seed, s.Jobs, 0) {
		if err := sc.Submit(spec); err != nil {
			return nil, err
		}
	}
	return sc.Run()
}

// generators builds the event generators of one build (a BuildJob or a
// BuildSchedJobs call): the first source of each SensorOpts builds the key
// list and alias table, and every later one is a Sibling drawing over them.
// The memo lives as long as the build, so nothing outlives the generators.
type generators map[workload.SensorOpts]*workload.SensorGen

func (m generators) gen(r *rng.Rand, site cloud.SiteID, opt workload.SensorOpts) *workload.SensorGen {
	if g, ok := m[opt]; ok {
		return g.Sibling(r, site)
	}
	g := workload.NewSensorGen(r, site, opt)
	m[opt] = g
	return g
}

// BuildJob converts a declarative job config into a core spec. genPrefix
// namespaces the workload generator streams so every roster job draws an
// independent deterministic event sequence; seed 0 means the default seed 1.
func BuildJob(seed uint64, j *apiv1.JobConfig, genPrefix string) (*core.JobSpec, error) {
	return buildJob(seed, j, genPrefix, generators{}), nil
}

// buildJob is BuildJob drawing its sources' generators from gens.
func buildJob(seed uint64, j *apiv1.JobConfig, genPrefix string, gens generators) *core.JobSpec {
	if seed == 0 {
		seed = 1
	}
	genRoot := rng.New(seed)
	var sources []core.SourceSpec
	for _, sc := range j.Sources {
		rate := workload.ConstantRate(sc.Rate)
		if sc.DiurnalAmplitude > 0 {
			rate = workload.DiurnalRate(sc.Rate, sc.DiurnalAmplitude, 24*time.Hour)
		}
		src := core.SourceSpec{Site: cloud.SiteID(sc.Site), Rate: rate}
		if sc.Keys > 0 || sc.Skew > 0 {
			src.Gen = gens.gen(genRoot.Split(genPrefix+sc.Site),
				cloud.SiteID(sc.Site), workload.SensorOpts{Keys: sc.Keys, Skew: sc.Skew})
		}
		sources = append(sources, src)
	}
	spec := &core.JobSpec{
		Sources:           sources,
		Sink:              cloud.SiteID(j.Sink),
		Window:            time.Duration(j.Window),
		Agg:               aggKinds[j.Agg],
		ShipRaw:           j.ShipRaw,
		Strategy:          strategies[j.Strategy],
		Lanes:             j.Lanes,
		Intr:              j.Intr,
		BudgetPerWindow:   j.Budget,
		DeadlinePerWindow: time.Duration(j.Deadline),
	}
	if j.CheckpointInterval > 0 {
		spec.Resilience = &resilience.Config{
			CheckpointInterval: time.Duration(j.CheckpointInterval),
		}
	}
	return spec
}

func applyInjection(e *core.Engine, inj apiv1.Injection) {
	switch inj.Kind {
	case "link_scale":
		e.Net.SetLinkScale(cloud.SiteID(inj.From), cloud.SiteID(inj.To), inj.Factor)
	case "kill_node":
		pool := e.Mgr.Pool(cloud.SiteID(inj.From))
		if inj.Node < len(pool) {
			e.Net.KillNode(pool[inj.Node])
		}
	case "restore_node":
		pool := e.Mgr.Pool(cloud.SiteID(inj.From))
		if inj.Node < len(pool) {
			e.Net.RestoreNode(pool[inj.Node])
		}
	case "kill_site":
		for _, n := range e.Mgr.Pool(cloud.SiteID(inj.From)) {
			e.Net.KillNode(n)
		}
	case "restore_site":
		for _, n := range e.Mgr.Pool(cloud.SiteID(inj.From)) {
			e.Net.RestoreNode(n)
		}
	default:
		// Validate rejects unknown kinds at load time; reaching here means a
		// kind was added to Validate but not implemented.
		panic(fmt.Sprintf("scenario: unhandled injection kind %q", inj.Kind))
	}
}
