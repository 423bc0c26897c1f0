package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"mixedmem/internal/obs"
	"mixedmem/internal/transport/tcp"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/metrics_keys.golden from the served /metrics documents")

// metricsWorkload touches every counter family a registry section reports:
// writes, an await, a causal read, a lock cycle and a barrier.
func metricsWorkload(p Process) {
	if p.ID() == 0 {
		p.Write("data", 7)
		p.Write("ready", 1)
	} else {
		p.Await("ready", 1)
		_ = p.ReadCausal("data")
	}
	p.WLock("l")
	p.WUnlock("l")
	p.Barrier()
}

// chancyKeys are the tcp link counters of recovered faults — a dial that
// lost a race with its peer's listener, and the replay that follows — which
// are omitted while zero and may be nonzero on any run; servedKeys leaves
// them out.
var chancyKeys = map[string]bool{"dialFailures": true, "replayed": true, "duplicates": true}

// servedKeys serves r as /metrics and returns the recursive key set of the
// JSON document, one dotted path per object key, sorted. Arrays are leaves.
func servedKeys(t *testing.T, r *obs.Registry) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("served /metrics is not a JSON object: %v\n%s", err, rec.Body.String())
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			return
		}
		for k, child := range obj {
			if chancyKeys[k] {
				continue
			}
			path := k
			if prefix != "" {
				path = prefix + "." + k
			}
			keys = append(keys, path)
			walk(path, child)
		}
	}
	walk("", doc)
	sort.Strings(keys)
	return keys
}

// TestMetricsKeysGolden pins the key set of the served /metrics document for
// the three deployments that serve one: a System on the simulated fabric, a
// System over a loopback tcp fleet, and one Peer of a tcp deployment. The tcp
// setups are read after every channel has flushed, so the link diagnostics
// that depend on ack timing read the same on every run (acks sent, nothing
// held in the replay logs); the fault counters are left out (chancyKeys).
// Regenerate deliberately with:
//
//	go test ./internal/core -run TestMetricsKeysGolden -update
func TestMetricsKeysGolden(t *testing.T) {
	var buf bytes.Buffer
	emit := func(setup string, keys []string) {
		fmt.Fprintf(&buf, "== %s\n", setup)
		for _, k := range keys {
			fmt.Fprintln(&buf, k)
		}
	}

	sim, err := NewSystem(Config{Procs: 2, TraceCapacity: 1024})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sim.Run(func(p *Proc) { metricsWorkload(p) })
	emit("sim system", servedKeys(t, sim.Registry()))
	sim.Close()

	fleet, err := tcp.NewFleet(2)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	sys, err := NewSystem(Config{Procs: 2, Transport: fleet})
	if err != nil {
		t.Fatalf("NewSystem over a fleet: %v", err)
	}
	sys.Run(func(p *Proc) { metricsWorkload(p) })
	r := sys.Registry()
	sys.Close() // flushes every channel before the sockets go away
	emit("tcp fleet system", servedKeys(t, r))

	trs, err := tcp.NewLoopback(2, nil)
	if err != nil {
		t.Fatalf("NewLoopback: %v", err)
	}
	peers := make([]*Peer, len(trs))
	for i, tr := range trs {
		if peers[i], err = NewPeer(PeerConfig{ID: i, Transport: tr}); err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *Peer) {
			defer wg.Done()
			metricsWorkload(p.Proc())
		}(p)
	}
	wg.Wait()
	for _, tr := range trs {
		if !tr.Flush(10 * time.Second) {
			t.Fatal("Flush timed out")
		}
	}
	emit("tcp peer", servedKeys(t, peers[0].Registry()))
	for _, p := range peers {
		p.Close()
	}

	golden := filepath.Join("testdata", "metrics_keys.golden")
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("served /metrics keys diverged from the golden.\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want)
	}
}
