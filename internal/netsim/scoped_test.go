package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/rng"
	"sage/internal/simtime"
)

// These tests pin component-scoped reallocation: a pass re-rates exactly the
// flows an event can reach, and what it computes is bit for bit what a
// world-wide pass at the same instant computes.

// markAllDirty marks every shared resource of the network, turning the next
// pass into a world-wide one.
func markAllDirty(net *Network) {
	for _, l := range net.linkList {
		net.markDirty(l.res)
	}
	for _, node := range net.nodes {
		if node.up != nil {
			net.markNodeDirty(node)
		}
	}
}

// allocation is what a pass decides: every active flow's rate, bit for bit,
// and where the wake event is armed.
type allocation struct {
	ids    []uint64
	rates  []uint64
	wakeAt simtime.Time
	wakeOn bool
}

func snapshotAllocation(net *Network) allocation {
	var a allocation
	for _, f := range net.live {
		if f.active {
			a.ids = append(a.ids, f.ID)
			a.rates = append(a.rates, math.Float64bits(f.Rate()))
		}
	}
	if a.wakeOn = net.wake.Scheduled(); a.wakeOn {
		a.wakeAt = net.wake.At()
	}
	return a
}

// requireSameAllocation fails unless got is want, flow for flow and bit for
// bit.
func requireSameAllocation(t *testing.T, what string, got, want allocation) {
	t.Helper()
	if len(got.ids) != len(want.ids) {
		t.Fatalf("%s: %d active flows, want %d", what, len(got.ids), len(want.ids))
	}
	for i := range want.ids {
		if got.ids[i] != want.ids[i] || got.rates[i] != want.rates[i] {
			t.Fatalf("%s: flow %d rate %v, want flow %d rate %v", what,
				got.ids[i], math.Float64frombits(got.rates[i]),
				want.ids[i], math.Float64frombits(want.rates[i]))
		}
	}
	if got.wakeOn != want.wakeOn || got.wakeAt != want.wakeAt {
		t.Fatalf("%s: wake armed=%v at %v, want armed=%v at %v", what,
			got.wakeOn, got.wakeAt, want.wakeOn, want.wakeAt)
	}
}

// fillWorldAsOne re-rates every active flow in a single progressive filling,
// as if the world were one component, and re-projects the wake.
func fillWorldAsOne(net *Network) {
	net.compStamp++
	all := net.reachedScratch[:0]
	for i := range net.rows {
		f := net.rows[i].f
		f.compEpoch = net.compStamp
		all = append(all, f.ID)
	}
	net.fill(net.compStamp, all)
	net.reachedScratch = all
	net.project()
}

// requireWorldWideAgrees is the oracle: with every resource dirty, a second
// pass at the same instant must move nothing, and neither may one filling of
// the whole world. A mutation that forgot its markDirty leaves a stale rate
// behind, and fails the first; filling components apart where one filling
// would decide differently fails the second.
func requireWorldWideAgrees(t *testing.T, what string, net *Network) {
	t.Helper()
	scoped := snapshotAllocation(net)
	markAllDirty(net)
	net.reallocate()
	requireSameAllocation(t, what+" (everything dirty)", scoped, snapshotAllocation(net))
	fillWorldAsOne(net)
	requireSameAllocation(t, what+" (one filling)", scoped, snapshotAllocation(net))
}

// TestScopedMatchesWorldWideUnderChurn drives every mutator of the network
// in a seeded order on a generated multi-region world with cross-traffic and
// glitches on, and after every mutation and every fired event checks the
// scoped allocation against the world-wide oracle and the max-min
// invariants.
func TestScopedMatchesWorldWideUnderChurn(t *testing.T) {
	const sites, regions = 24, 4
	sched := simtime.New()
	opts := roughOptions()
	opts.CrossTrafficMeanGap = 30 * time.Second
	opts.crossTrafficMeanBytes = 8 << 20
	opts.GlitchMeanGap = time.Minute
	net := New(sched, cloud.GenerateWorld(sites, regions, 3), rng.New(11), opts)
	r := rng.New(4242)

	classes := []cloud.VMClass{cloud.Small, cloud.Medium, cloud.XLarge}
	nodesAt := map[cloud.SiteID][]*Node{}
	var nodes []*Node
	for _, id := range net.topo.SiteIDs() {
		for k := 0; k < 2; k++ {
			node := net.NewNode(id, classes[r.Intn(len(classes))])
			nodesAt[id] = append(nodesAt[id], node)
			nodes = append(nodes, node)
		}
	}
	links := net.topo.Links()
	pick := func(site cloud.SiteID) *Node { return nodesAt[site][r.Intn(2)] }

	var flows []*Flow
	completed := 0
	start := func() *Flow {
		var src, dst *Node
		if r.Intn(5) == 0 { // intra-site
			at := nodesAt[cloud.GeneratedSiteID(r.Intn(sites))]
			src, dst = at[0], at[1]
		} else {
			l := links[r.Intn(len(links))]
			src, dst = pick(l.From), pick(l.To)
		}
		var fo FlowOpts
		if r.Intn(3) == 0 {
			fo.CapMBps = 0.5 + 6*r.Float64()
		}
		fo.noActivationDelay = r.Intn(4) == 0
		size := int64(1e6 + r.Float64()*40e6)
		f := net.StartFlow(src, dst, size, fo, func(f *Flow) {
			if f.Err() == nil {
				completed++
			}
		})
		flows = append(flows, f)
		return f
	}
	unfinished := func() *Flow {
		for tries := 0; tries < 8 && len(flows) > 0; tries++ {
			if f := flows[r.Intn(len(flows))]; !f.Finished() {
				return f
			}
		}
		return nil
	}

	// step runs one mutation or event and, if it ended in a reallocation
	// pass, holds the result against the oracle. (Without a pass there is
	// nothing to compare: the wake was projected at an earlier instant.)
	counts := map[string]int{}
	step := func(what string, mutate func()) {
		counts[what]++
		epoch := net.allocEpoch
		mutate()
		if net.allocEpoch != epoch {
			counts["passes"]++
			requireWorldWideAgrees(t, what, net)
		}
		checkMaxMinInvariants(t, net)
	}
	var down []*Node
	for round := 0; round < 300; round++ {
		switch op := r.Intn(12); {
		case op < 5:
			step("StartFlow", func() { start() })
		case op == 5: // cancel before the activation delay is over
			step("CancelFlow/pending", func() { net.CancelFlow(start()) })
		case op == 6:
			if f := unfinished(); f != nil && f.active {
				step("CancelFlow/active", func() { net.CancelFlow(f) })
			}
		case op == 7:
			if node := nodes[r.Intn(len(nodes))]; len(down) < 3 && !node.Failed() {
				down = append(down, node)
				step("KillNode", func() { net.KillNode(node) })
			}
		case op == 8:
			if len(down) > 0 {
				step("RestoreNode", func() { net.RestoreNode(down[0]) })
				down = down[1:]
			}
		case op == 9:
			node, scale := nodes[r.Intn(len(nodes))], []float64{0, 0.3, 1, 1}[r.Intn(4)]
			step("SetNodeNICScale", func() { net.SetNodeNICScale(node, scale) })
		default:
			l, scale := links[r.Intn(len(links))], []float64{0.25, 1, 1, 2}[r.Intn(4)]
			step("SetLinkScale", func() { net.SetLinkScale(l.From, l.To, scale) })
		}
		// Let time pass one event at a time: activations, completions,
		// tenant arrivals, glitches and resample ticks.
		until := sched.Now() + time.Duration(r.Intn(2500))*time.Millisecond
		for {
			at, ok := sched.NextAt()
			if !ok || at > until {
				break
			}
			step("event", func() { sched.Step() })
		}
		sched.RunUntil(until)
	}
	t.Logf("steps: %v, %d completions, %d active at the end", counts, completed, net.ActiveFlows())
	for _, what := range []string{"StartFlow", "CancelFlow/pending", "CancelFlow/active", "KillNode",
		"RestoreNode", "SetNodeNICScale", "SetLinkScale", "event"} {
		if counts[what] == 0 {
			t.Errorf("the sequence never exercised %s", what)
		}
	}
	if completed < 50 {
		t.Errorf("only %d natural completions; workload too weak", completed)
	}
	if sched.Now() < 2*updateInterval {
		t.Errorf("run ended at %v, before any resample tick", sched.Now())
	}
}

// TestDirtyOrderCannotReachARate re-rates one busy instant from the dirty
// list in marking order, reversed and shuffled: the fill takes its order from
// flow IDs, so the rates are the same bits every time.
func TestDirtyOrderCannotReachARate(t *testing.T) {
	sched, net := NewBenchRoughWorld()
	sched.RunFor(90 * time.Second)
	markAllDirty(net)
	net.reallocate()
	want := snapshotAllocation(net)
	if len(want.ids) < 100 {
		t.Fatalf("only %d active flows; world too quiet to mean anything", len(want.ids))
	}
	r := rng.New(77)
	for round := 0; round < 6; round++ {
		markAllDirty(net)
		d := net.dirty
		if round == 0 {
			for i, j := 0, len(d)-1; i < j; i, j = i+1, j-1 {
				d[i], d[j] = d[j], d[i]
			}
		} else {
			for i := len(d) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				d[i], d[j] = d[j], d[i]
			}
		}
		net.reallocate()
		if net.rerated != len(want.ids) {
			t.Fatalf("round %d: %d flows re-rated, want all %d", round, net.rerated, len(want.ids))
		}
		requireSameAllocation(t, "shuffled dirty list", snapshotAllocation(net), want)
	}
}

// TestFillMeetsResourcesInIDOrder pins the order in which a fill meets its
// resources on an exact tie of fair shares, where that order decides a bit.
// Three flows into one receiver: f0 and f1 from s1 (NIC 1.1 MB/s), f2 from s0
// (NIC 0.3). The receiver's NIC (0.9 over three flows) and s0's (0.3 over
// one) tie at 0.3. Met in flow-ID order (s1, receiver, s0), the receiver is
// the first bottleneck and fixes all three at 0.9/3. A fill that met s0
// first — in reverse, or in the order the walk from f2's resources reaches
// them — would fix f2 at 0.3 and leave f0 and f1 (0.9-0.3)/2, one bit more.
// The tie is filled once as the whole ledger and once beside an unrelated
// flow, so both of fill's orderings are pinned.
func TestFillMeetsResourcesInIDOrder(t *testing.T) {
	s0NIC, s1NIC, recvNIC := 0.3, 1.1, 0.9
	want := recvNIC / 3
	if want != s0NIC || (recvNIC-s0NIC)/2 == want {
		t.Fatal("the NICs no longer tie, or the tie no longer decides a bit")
	}
	for _, beside := range []bool{false, true} {
		topo := cloud.NewTopology(1000, time.Millisecond)
		topo.AddSite(&cloud.Site{ID: "A"})
		net := New(simtime.New(), topo, rng.New(1), Options{GlitchMeanGap: -1})
		nic := func(name string, mbps float64) *Node {
			return net.NewNode("A", cloud.VMClass{Name: name, NICMBps: mbps})
		}
		if beside {
			net.StartFlow(nic("x", 1), nic("y", 1), 1e12, FlowOpts{noActivationDelay: true}, nil)
		}
		s0, s1, recv := nic("s0", s0NIC), nic("s1", s1NIC), nic("recv", recvNIC)
		flows := []*Flow{
			net.StartFlow(s1, recv, 1e12, FlowOpts{noActivationDelay: true}, nil),
			net.StartFlow(s1, recv, 1e12, FlowOpts{noActivationDelay: true}, nil),
			net.StartFlow(s0, recv, 1e12, FlowOpts{noActivationDelay: true}, nil),
		}
		for i, f := range flows {
			if got := f.Rate(); got != want {
				t.Errorf("beside another flow %v: f%d rate %v, want %v", beside, i, got, want)
			}
		}
	}
}

// tenantFlow starts a background flow between two of the cross-traffic
// generator's tenant nodes, the way the generator does, already active.
func tenantFlow(net *Network, src, dst *Node) *Flow {
	return net.StartFlow(src, dst, 1e12, FlowOpts{background: true, noActivationDelay: true}, nil)
}

// TestScopeOfAPass pins how far single events reach.
func TestScopeOfAPass(t *testing.T) {
	// Cross-traffic is on so that the generator provisions its tenant nodes,
	// at a gap that keeps it from sending anything during the test.
	opts := quietOpts()
	opts.CrossTrafficMeanGap = 1e6 * time.Hour
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(1), opts)
	const k = 3
	ab := startN(sched, net, k) // k flows on A->B, each between its own VMs
	// Two flows on B->C and an intra-site one at C, none sharing anything
	// with the A->B flows.
	var other []*Flow
	for i := 0; i < 2; i++ {
		other = append(other, net.StartFlow(net.NewNode("B", cloud.Medium), net.NewNode("C", cloud.Medium), 1e12, FlowOpts{}, nil))
	}
	intra := net.StartFlow(net.NewNode("C", cloud.Small), net.NewNode("C", cloud.Small), 1e12, FlowOpts{}, nil)
	sched.RunFor(time.Second)
	before := snapshotAllocation(net)

	tenant := map[cloud.SiteID]*Node{}
	for _, node := range net.nodes {
		if node.Class.Name == "tenant" {
			tenant[node.Site] = node
		}
	}
	if len(tenant) != 3 {
		t.Fatalf("found %d tenant nodes, want one per site", len(tenant))
	}

	// A tenant flow activating on A->B re-rates the link's k flows and
	// itself, and nothing else moves.
	tenantFlow(net, tenant["A"], tenant["B"])
	if net.rerated != k+1 {
		t.Fatalf("tenant flow on a link with %d flows re-rated %d, want %d", k, net.rerated, k+1)
	}
	for _, f := range ab {
		if f.Rate() >= math.Float64frombits(before.rates[0]) {
			t.Fatalf("A->B flow %d kept rate %v with a tenant flow on its link", f.ID, f.Rate())
		}
	}
	after := snapshotAllocation(net)
	for i, id := range before.ids {
		if id >= uint64(k) && after.rates[i] != before.rates[i] {
			t.Fatalf("flow %d, off the link, was re-rated", id)
		}
	}

	// Two tenant flows from one site to two different sites share the
	// sending tenant node and nothing else. Were that node a resource, it
	// would weld them (and through the hubs every tenant flow in the world)
	// into one component.
	tenantFlow(net, tenant["A"], tenant["C"])
	if net.rerated != 1 {
		t.Fatalf("first tenant flow on idle A->C re-rated %d, want 1 (itself)", net.rerated)
	}
	tenantFlow(net, tenant["A"], tenant["C"])
	if net.rerated != 2 {
		t.Fatalf("tenant flow on A->C re-rated %d, want 2: the tenant flow on A->B leaves from the same node but must be in another component", net.rerated)
	}

	// A capacity change on an idle link reaches nobody.
	net.SetLinkScale("C", "A", 0.5)
	if net.rerated != 0 {
		t.Fatalf("scaling idle link C->A re-rated %d flows, want 0", net.rerated)
	}

	// A resample re-rates every flow on a WAN link, and only those.
	wan := 0
	for _, f := range net.live {
		if f.active && f.link != nil {
			wan++
		}
	}
	net.resample()
	if net.rerated != wan || wan != k+1+2+len(other) {
		t.Fatalf("resample re-rated %d flows, want the %d WAN flows (of %d active)", net.rerated, wan, len(net.live))
	}
	if !intra.active {
		t.Fatal("intra-site flow is not active")
	}
	requireWorldWideAgrees(t, "after the scope sequence", net)
}

// TestGlitchScope runs real glitches: one that starts or ends on an idle
// link re-rates nothing, one on the loaded link re-rates its flows.
func TestGlitchScope(t *testing.T) {
	sched := simtime.New()
	net := New(sched, quietTopo(), rng.New(3), Options{
		GlitchMeanGap: 20 * time.Second, GlitchMeanDur: 10 * time.Second, ProbeNoise: 1e-9,
	})
	const k = 3
	startN(sched, net, k) // all on A->B
	loaded := net.links[[2]cloud.SiteID{"A", "B"}]
	glitch := make([]float64, len(net.linkList))
	idle, busy := 0, 0
	for sched.Now() < 10*time.Minute {
		for i, l := range net.linkList {
			glitch[i] = l.glitch
		}
		if !sched.Step() {
			break
		}
		for i, l := range net.linkList {
			if l.glitch == glitch[i] {
				continue
			}
			if l == loaded {
				busy++
				if net.rerated != k {
					t.Fatalf("glitch on the loaded link re-rated %d flows, want %d", net.rerated, k)
				}
			} else {
				idle++
				if net.rerated != 0 {
					t.Fatalf("glitch on idle link %s re-rated %d flows, want 0", l.res.name, net.rerated)
				}
			}
		}
	}
	if idle < 10 || busy < 2 {
		t.Fatalf("saw %d glitch edges on idle links and %d on the loaded one; run too short", idle, busy)
	}
}

// pinnedWorldHash is the FNV-1a hash over (ID, end time, bytes) of every flow
// that finishes in TestPinnedCrossTrafficWorld. It was recorded at commit
// b46f61e, with the world-wide allocator and tenant nodes behind 1e6 MB/s
// NICs, before either was touched: it is the in-module proof that unmetered
// tenants and component scoping change no bit of the simulation.
const pinnedWorldHash = 0x867d18dec9e98a88

func TestPinnedCrossTrafficWorld(t *testing.T) {
	sched := simtime.New()
	net := New(sched, cloud.GenerateWorld(60, 6, 1), rng.New(1), roughOptions())
	r := rng.New(99)
	// Twelve foreground lanes: spokes of three regions to two hubs, every
	// third lane capped, every fourth sharing its sender with the previous
	// one, the last one intra-site. A lane restarts with a fresh size when
	// its flow completes.
	var lane func(src, dst *Node, opts FlowOpts)
	lane = func(src, dst *Node, opts FlowOpts) {
		size := int64(1<<20) + int64(r.Intn(24<<20))
		net.StartFlow(src, dst, size, opts, func(*Flow) { lane(src, dst, opts) })
	}
	var prev *Node
	for i := 0; i < 12; i++ {
		spoke := cloud.GeneratedSiteID(6 + i)
		src := net.NewNode(spoke, cloud.Medium)
		if i%4 == 3 {
			src = prev
		}
		prev = src
		dst := net.NewNode(cloud.GeneratedHub(i%2), cloud.Medium)
		if i == 11 {
			dst = net.NewNode(src.Site, cloud.Small)
		}
		var opts FlowOpts
		if i%3 == 2 {
			opts.CapMBps = 2.5
		}
		opts.noActivationDelay = i%5 == 4
		lane(src, dst, opts)
	}

	// Background flows have no owner to ask, so finished flows are found by
	// comparing the live list across each event.
	h := fnv.New64a()
	var buf [24]byte
	finished := 0
	var before []*Flow
	for {
		at, ok := sched.NextAt()
		if !ok || at > 5*time.Minute {
			break
		}
		before = append(before[:0], net.live...)
		sched.Step()
		for _, f := range before {
			if !f.finished {
				continue
			}
			binary.LittleEndian.PutUint64(buf[0:], f.ID)
			binary.LittleEndian.PutUint64(buf[8:], uint64(f.ended))
			binary.LittleEndian.PutUint64(buf[16:], uint64(f.BytesDone()))
			h.Write(buf[:])
			finished++
		}
	}
	t.Logf("%d flows finished over %d events", finished, sched.Fired())
	if got := h.Sum64(); got != pinnedWorldHash {
		t.Fatalf("finished-flow hash = %#016x, want %#016x: the simulation is no longer bit-identical to the world-wide allocator's", got, uint64(pinnedWorldHash))
	}
}

// TestWakeWithNothingToDo covers a wake that finds no flow complete and no
// resource dirty: it re-rates nothing and re-arms exactly where a world-wide
// pass at that instant would.
func TestWakeWithNothingToDo(t *testing.T) {
	// Fired by hand between two events of a busy world.
	sched, net := NewBenchRoughWorld()
	sched.RunFor(30*time.Second + 1234*time.Microsecond)
	live := len(net.live)
	net.onWake()
	if net.rerated != 0 || len(net.live) != live {
		t.Fatalf("idle wake re-rated %d flows and finished %d", net.rerated, live-len(net.live))
	}
	if !net.wake.Scheduled() || net.wake.At() <= sched.Now() {
		t.Fatalf("idle wake left the wake event armed=%v at %v (now %v)", net.wake.Scheduled(), net.wake.At(), sched.Now())
	}
	requireWorldWideAgrees(t, "after an idle wake", net)

	// Fired by the projection itself: at 5 bytes/ns the nanosecond truncation
	// of the ETA leaves the flow 3 bytes short when the wake fires, nothing
	// completes, and the pass re-arms at the 1 µs floor, which is when the
	// flow then ends.
	sched, net = newQuiet(t)
	fat := cloud.VMClass{Name: "fat", NICMBps: 5000}
	var done *Flow
	net.StartFlow(net.NewNode("A", fat), net.NewNode("A", fat), 1e9+3,
		FlowOpts{noActivationDelay: true}, func(f *Flow) { done = f })
	sched.RunFor(200 * time.Millisecond)
	if done != nil || net.ActiveFlows() != 1 {
		t.Fatal("flow finished at the truncated ETA; the test no longer produces an idle wake")
	}
	sched.RunFor(time.Second)
	if done == nil {
		t.Fatal("flow never finished: the idle wake did not re-arm")
	}
	if d := done.Duration(); d != 200*time.Millisecond+time.Microsecond {
		t.Fatalf("flow ended after %v, want 200.001ms (idle wake re-armed at the 1 µs floor)", d)
	}
}

// pinnedAbortsHash is the FNV-1a hash TestPinnedAbortsAndWakes computes. It
// was recorded before the flow ledger replaced per-flow byte crediting: the
// partial credit an aborted flow receives is what a killed site is billed,
// and the wake instants are where every later timestamp comes from. Never
// re-record it to make a change pass.
const pinnedAbortsHash = 0xe7195cb39aca55af

// TestPinnedAbortsAndWakes drives raw_rough's world, cross-traffic on, through
// the mutators TestPinnedCrossTrafficWorld never calls — cancelling pending
// and active flows, killing and restoring nodes, a NIC scaled to 0 and back,
// link scales under running flows — for five virtual minutes. It hashes
// (ID, end, bytes, aborted) of every flow that finishes or aborts, and the
// wake instant after every fired event.
func TestPinnedAbortsAndWakes(t *testing.T) {
	sched := simtime.New()
	net := New(sched, cloud.GenerateWorld(60, 6, 1), rng.New(1), roughOptions())
	r := rng.New(31)

	// fresh holds the flows this test started during the current event, so
	// one that is cancelled before the event returns is still hashed.
	var fresh []*Flow
	start := func(src, dst *Node, size int64, opts FlowOpts, done func(*Flow)) *Flow {
		f := net.StartFlow(src, dst, size, opts, done)
		fresh = append(fresh, f)
		return f
	}

	// Twelve foreground lanes from spokes to the hubs of regions 0 and 1,
	// every third capped, every fifth without activation delay. A lane
	// restarts when its flow ends, aborted or not.
	const lanes = 12
	current := make([]*Flow, lanes)
	var srcs, dsts []*Node
	var lane func(i int)
	lane = func(i int) {
		size := int64(1<<20) + int64(r.Intn(24<<20))
		var opts FlowOpts
		if i%3 == 2 {
			opts.CapMBps = 2.5
		}
		opts.noActivationDelay = i%5 == 4
		current[i] = start(srcs[i], dsts[i], size, opts, func(*Flow) { lane(i) })
	}
	for i := 0; i < lanes; i++ {
		srcs = append(srcs, net.NewNode(cloud.GeneratedSiteID(6+i), cloud.Medium))
		dsts = append(dsts, net.NewNode(cloud.GeneratedHub(i%2), cloud.Medium))
	}
	for i := 0; i < lanes; i++ {
		lane(i)
	}

	// A mutation every few virtual seconds, in a seeded order. Every undo
	// (restore, NIC back to 1, link back to 1) is its own later event.
	counts := map[string]int{}
	var mutate func()
	mutate = func() {
		i := r.Intn(lanes)
		back := time.Duration(1+r.Intn(20)) * time.Second
		switch op := r.Intn(5); op {
		case 0:
			counts["CancelFlow/pending"]++
			net.CancelFlow(start(srcs[i], dsts[(i+1)%lanes], 8<<20, FlowOpts{}, nil))
		case 1:
			if f := current[i]; f.active {
				counts["CancelFlow/active"]++
				net.CancelFlow(f)
			}
		case 2:
			if node := srcs[i]; !node.Failed() {
				counts["KillNode"]++
				net.KillNode(node)
				sched.After(back, func() { net.RestoreNode(node) })
			}
		case 3:
			counts["SetNodeNICScale"]++
			node := dsts[i]
			net.SetNodeNICScale(node, 0)
			sched.After(back, func() { net.SetNodeNICScale(node, 1) })
		default:
			counts["SetLinkScale"]++
			from, to := srcs[i].Site, dsts[i].Site
			net.SetLinkScale(from, to, []float64{0.1, 0.5, 2}[r.Intn(3)])
			sched.After(back, func() { net.SetLinkScale(from, to, 1) })
		}
		sched.After(time.Duration(500+r.Intn(4500))*time.Millisecond, mutate)
	}
	sched.After(5*time.Second, mutate)

	h := fnv.New64a()
	var buf [32]byte
	put := func(vals ...uint64) {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		h.Write(buf[:8*len(vals)])
	}
	hashEnded := func(fs []*Flow) {
		for _, f := range fs {
			if !f.finished {
				continue
			}
			aborted := uint64(0)
			if f.Err() != nil {
				aborted = 1
				counts["aborted"]++
			}
			put(f.ID, uint64(f.ended), uint64(f.BytesDone()), aborted)
			counts["ended"]++
		}
	}
	var before []*Flow
	for {
		at, ok := sched.NextAt()
		if !ok || at > 5*time.Minute {
			break
		}
		before = append(before[:0], net.live...)
		fresh = fresh[:0]
		sched.Step()
		hashEnded(before)
		hashEnded(fresh)
		wake := uint64(math.MaxUint64)
		if net.wake.Scheduled() {
			wake = uint64(net.wake.At())
		}
		put(wake)
	}
	t.Logf("%v over %d events", counts, sched.Fired())
	for _, what := range []string{"CancelFlow/pending", "CancelFlow/active", "KillNode", "SetNodeNICScale", "SetLinkScale"} {
		if counts[what] < 5 {
			t.Errorf("the run exercised %s %d times; want at least 5", what, counts[what])
		}
	}
	if got := h.Sum64(); got != pinnedAbortsHash {
		t.Fatalf("ended-flow and wake hash = %#016x, want %#016x: aborts, partial credit or wake instants moved", got, uint64(pinnedAbortsHash))
	}
}
