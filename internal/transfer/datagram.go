package transfer

import (
	"errors"
	"fmt"
	"time"

	"sage/internal/cloud"
	"sage/internal/netsim"
)

// DatagramResult reports a sender-paced, unacknowledged transfer. The sender
// transmits at a fixed rate for exactly Offered/rate seconds and stops;
// whatever the network carried in that window arrived, the rest was lost.
// This is the latency/completeness tradeoff of streaming over UDP-style
// transports: delivery time is deterministic, delivery is not.
type DatagramResult struct {
	From, To  cloud.SiteID
	Offered   int64
	Delivered int64
	Duration  time.Duration
	// LossRate is 1 - Delivered/Offered.
	LossRate float64
	// Cost covers egress for delivered bytes plus VM time at the
	// request's pacing duration.
	Cost float64
	// EgressCost is the egress component of Cost.
	EgressCost float64
}

// SendDatagramJob transmits size bytes from a worker in `from` to a worker in
// `to` at the given pace without acknowledgements, the flow attributed to a
// job of a multi-job run (netsim.FlowOpts.JobID; 0 for a single job). onDone
// fires when the sender finishes pacing (a fixed, rate-determined time),
// reporting how much actually arrived. rateMBps must be positive; Intr caps
// are the caller's responsibility via the rate.
func (m *Manager) SendDatagramJob(job int, from, to cloud.SiteID, size int64, rateMBps float64, onDone func(DatagramResult)) error {
	if size <= 0 {
		return errors.New("transfer: datagram size must be positive")
	}
	if rateMBps <= 0 {
		return errors.New("transfer: datagram rate must be positive")
	}
	if from == to {
		return errors.New("transfer: datagram within one site")
	}
	src, err := m.take(from)
	if err != nil {
		return err
	}
	dst, err := m.take(to)
	if err != nil {
		return err
	}
	rtt, ok := m.net.Topology().RTT(from, to)
	if !ok {
		return fmt.Errorf("transfer: no route %s -> %s", from, to)
	}
	start := m.sched.Now()
	pace := time.Duration(float64(size) / (rateMBps * 1e6) * float64(time.Second))
	finished := false
	report := func(f *netsim.Flow) {
		if finished {
			return
		}
		finished = true
		delivered := f.BytesDone()
		if delivered > size {
			delivered = size
		}
		res := DatagramResult{
			From: from, To: to,
			Offered:   size,
			Delivered: delivered,
			Duration:  m.sched.Now() - start,
			LossRate:  1 - float64(delivered)/float64(size),
		}
		if s := m.net.Topology().Site(from); s != nil {
			res.EgressCost = cloud.EgressCost(s, delivered)
			res.Cost += res.EgressCost
		}
		hours := res.Duration.Hours()
		res.Cost += (src.Class.PricePerHour + dst.Class.PricePerHour) * hours * m.opt.DefaultIntr
		if onDone != nil {
			onDone(res)
		}
	}
	// The flow is capped at the pacing rate; if the network can carry it,
	// everything arrives in exactly pace + RTT. If capacity collapses, the
	// sender does not slow down or retry — it stops on schedule and the
	// shortfall is loss.
	fl := m.net.StartFlow(src, dst, size, netsim.FlowOpts{CapMBps: rateMBps, JobID: job}, report)
	m.sched.After(pace+rtt, func() {
		if !fl.Finished() {
			m.net.CancelFlow(fl) // report runs via the flow callback
		}
	})
	return nil
}
