package bench

import (
	"mixedmem/internal/core"
	"mixedmem/internal/network"
	"mixedmem/internal/transport"
	"mixedmem/internal/transport/tcp"
)

// Substrate is the message substrate an experiment's deployments run on,
// passed to the runner as data: the runner's body is the same on either, and
// only the transport.Transport under its systems differs. The zero value is
// the simulated fabric with immediate delivery.
type Substrate struct {
	// TCP selects real kernel sockets — an in-process tcp.Fleet on loopback —
	// instead of the simulated fabric.
	TCP bool
	// Latency is the simulated fabric's delivery-cost model. Sockets cost
	// what the kernel charges, so it is unused when TCP is set.
	Latency network.LatencyModel
}

// String names the substrate as results and JSON rows do: "sim" or "tcp".
func (s Substrate) String() string {
	if s.TCP {
		return "tcp"
	}
	return "sim"
}

// transport builds the substrate for nodes nodes; seed seeds the simulated
// fabric's latency jitter.
func (s Substrate) transport(nodes int, seed int64) (transport.Transport, error) {
	if s.TCP {
		return tcp.NewFleet(nodes)
	}
	return network.New(network.Config{Nodes: nodes, Latency: s.Latency, Seed: seed})
}

// NewSystem builds a core.System of cfg.Procs processes over the substrate;
// cfg.Seed also seeds the simulated fabric. The system owns the transport:
// System.Close closes it.
func (s Substrate) NewSystem(cfg core.Config) (*core.System, error) {
	tr, err := s.transport(cfg.Procs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cfg.Transport = tr
	sys, err := core.NewSystem(cfg)
	if err != nil {
		tr.Close()
	}
	return sys, err
}
