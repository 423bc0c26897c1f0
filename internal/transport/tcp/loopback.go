package tcp

import (
	"fmt"
	"net"
	"time"
)

// NewLoopback builds a fully-wired n-node TCP deployment on 127.0.0.1 with
// kernel-assigned ports: it binds all n listeners first, collects their
// addresses, and only then starts the transports, so there is no port-guess
// race. Benches, tests, and tcp.Fleet use it; production deployments use New
// with explicit peer addresses. configure, when non-nil, sees each node's
// Config with its wiring filled in; it may adjust the tunables and wrap the
// Listener (to count or hold back connections), but the node's ID and the
// peer list are the helper's.
//
// On error every listener and transport already created is closed. On
// success the caller owns the transports and must Close each.
func NewLoopback(n int, configure func(*Config)) ([]*Transport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tcp: loopback with %d nodes", n)
	}
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("tcp: loopback listen: %w", err)
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}
	transports := make([]*Transport, n)
	for i := range transports {
		cfg := Config{
			ID: i, Peers: peers, Listener: listeners[i],
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  250 * time.Millisecond,
		}
		if configure != nil {
			configure(&cfg)
			cfg.ID, cfg.Peers = i, peers
			if cfg.Listener == nil {
				cfg.Listener = listeners[i]
			}
		}
		tr, err := New(cfg)
		if err != nil {
			for _, t := range transports[:i] {
				t.Close()
			}
			for _, l := range listeners[i:] {
				l.Close()
			}
			return nil, err
		}
		transports[i] = tr
	}
	return transports, nil
}
