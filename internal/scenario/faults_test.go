package scenario

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	apiv1 "sage/api/v1"
	"sage/internal/core"
	"sage/internal/obs"
	"sage/internal/stream"
	"sage/internal/trace"
)

// The fault rosters (testdata/faults, one per failure class) are what a
// program runs to reach the recovery paths: the statement census runs each
// through sagesim, and this test runs each through Run at 1 and 4 shards.
// Every roster must be shard-invariant (trace and report byte for byte),
// recover the answer its uninjected twin computes, conserve egress between
// the per-job and per-site ledgers, and take the path it is named for.
var faultRosters = []struct {
	file string
	// took reports whether the run took the roster's recovery path; the
	// trace is the run's JSONL.
	took func(res *Result, trace []byte) error
}{
	{"sink_loss.json", func(res *Result, _ []byte) error {
		m := res.Report.Resilience
		if m.Failovers < 1 || m.DuplicateBytes == 0 {
			return fmt.Errorf("want a failover that re-collects a window, got %+v", *m)
		}
		return nil
	}},
	{"pool_death.json", func(res *Result, tr []byte) error {
		m := res.Report.Resilience
		if m.SkippedBytes == 0 || m.ResumedTransfers == 0 {
			return fmt.Errorf("want a ledger resume that skips acked chunks, got %+v", *m)
		}
		if !bytes.Contains(tr, []byte(`"note":"self-heal"`)) {
			return fmt.Errorf("want a transfer that rebuilds its lanes after their nodes died")
		}
		return nil
	}},
	{"source_loss.json", func(res *Result, _ []byte) error {
		m := res.Report.Resilience
		if m.Recoveries < 1 || m.ReplayedWindows < 2 {
			return fmt.Errorf("want a recovered source replaying several windows, got %+v", *m)
		}
		return nil
	}},
	{"partition.json", func(res *Result, tr []byte) error {
		if !bytes.Contains(tr, []byte(`"kind":"retransmit"`)) {
			return fmt.Errorf("want a chunk retransmitted after the partition stalled it")
		}
		return nil
	}},
	{"outage.json", func(res *Result, tr []byte) error {
		if !bytes.Contains(tr, []byte(`"note":"no viable sink; stalling"`)) {
			return fmt.Errorf("want a failover that stalls while every site is down")
		}
		return nil
	}},
	{"preempt.json", func(res *Result, _ []byte) error {
		failovers := 0
		for _, j := range res.Multi.Jobs {
			failovers += j.Report.Resilience.Failovers
		}
		if res.Multi.Jobs[0].Preemptions == 0 || res.Multi.Jobs[1].Preemptions == 0 || failovers < 2 {
			return fmt.Errorf("want both low jobs preempted and two failovers, got %d failovers", failovers)
		}
		return nil
	}},
}

// faultRun is one run's observable outcome.
type faultRun struct {
	res   *Result
	trace []byte
	fp    string
}

func runFault(t *testing.T, s *apiv1.Roster, shards int) faultRun {
	t.Helper()
	rec := trace.New(1 << 18)
	res, err := Run(s, core.WithShards(shards),
		core.WithObservability(&obs.Observer{Subscribers: []obs.Subscriber{rec}}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	fr := faultRun{res: res, trace: buf.Bytes()}
	if res.Multi != nil {
		fr.fp = fmt.Sprintf("multi=%016x\n", res.Multi.Fingerprint())
		for _, j := range res.Multi.Jobs {
			fr.fp += reportFP(j.Name, j.Report)
		}
	} else {
		fr.fp = reportFP(s.Name, res.Report)
	}
	// Conservation: the egress attributed to jobs sums to the world's.
	net := res.Engine.Net
	var perJob, perSite int64
	for i := 0; i < net.JobsSeen(); i++ {
		perJob += net.JobEgressBytes(i)
	}
	for _, id := range net.Topology().SiteIDs() {
		perSite += net.EgressBytes(id)
	}
	if perJob != perSite || perJob == 0 {
		t.Errorf("%d shards: per-job egress %d != per-site egress %d", shards, perJob, perSite)
	}
	return fr
}

func reportFP(name string, r *core.Report) string {
	fp := fmt.Sprintf("%s windows=%d incomplete=%d events=%d bytes=%d cost=%.9f egress=%.9f vms=%.6f lat=%+v res=%+v\n",
		name, r.Windows, r.Incomplete, r.TotalEvents, r.TotalBytes, r.TotalCost,
		r.EgressCost, r.VMSeconds, r.LatencySummary, *r.Resilience)
	for _, sw := range r.SiteWindows {
		fp += fmt.Sprintf("  %s %v %d %d %d %d %v %.9f\n",
			sw.Site, sw.Window, sw.Events, sw.Keys, sw.Bytes, sw.Lanes, sw.Transfer, sw.Cost)
	}
	return fp
}

// answers lists each job's global answer.
func answers(res *Result) [][]stream.KV {
	if res.Multi == nil {
		return [][]stream.KV{res.Report.Global.Result()}
	}
	var out [][]stream.KV
	for _, j := range res.Multi.Jobs {
		out = append(out, j.Report.Global.Result())
	}
	return out
}

func TestFaultRosters(t *testing.T) {
	for _, fr := range faultRosters {
		t.Run(fr.file, func(t *testing.T) {
			f, err := os.Open(filepath.Join("..", "..", "testdata", "faults", fr.file))
			if err != nil {
				t.Fatal(err)
			}
			s, err := Load(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			seq := runFault(t, s, 1)
			if err := fr.took(seq.res, seq.trace); err != nil {
				t.Error(err)
			}
			par := runFault(t, s, 4)
			if !bytes.Equal(seq.trace, par.trace) {
				t.Errorf("trace JSONL diverges between 1 and 4 shards (%d vs %d bytes)", len(seq.trace), len(par.trace))
			}
			if seq.fp != par.fp {
				t.Errorf("report diverges between 1 and 4 shards:\n%s\n%s", seq.fp, par.fp)
			}
			// The recovered answer equals the uninjected roster's.
			calm := *s
			calm.Injections = nil
			want := answers(runFault(t, &calm, 1).res)
			for j, got := range answers(seq.res) {
				if len(want[j]) == 0 {
					t.Fatalf("job %d: the uninjected run has an empty answer", j)
				}
				if err := sameAnswer(got, want[j]); err != nil {
					t.Errorf("job %d: recovered answer differs from the uninjected run: %v", j, err)
				}
			}
		})
	}
}

func sameAnswer(got, want []stream.KV) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			return fmt.Errorf("key %d = %q, want %q", i, got[i].Key, want[i].Key)
		}
		if d := math.Abs(got[i].Value - want[i].Value); d > 1e-9*math.Abs(want[i].Value) {
			return fmt.Errorf("key %q = %v, want %v", want[i].Key, got[i].Value, want[i].Value)
		}
	}
	return nil
}
