package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"mixedmem/internal/transport"
)

func TestFloorIgnoresSlowEpochs(t *testing.T) {
	// 30 epochs at 0.5 s; interference adds time to a third of them.
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = 0.5
		if i%3 == 1 {
			xs[i] += 0.25 + 0.01*float64(i)
		}
	}
	if got := floor(xs); got != 0.5 {
		t.Errorf("floor = %v, want the undisturbed 0.5", got)
	}
	if got := median(xs); got != 0.5 {
		t.Errorf("median = %v, want 0.5", got)
	}
	// With most epochs disturbed the median moves and the floor does not.
	for i := range xs {
		if i >= 5 {
			xs[i] = 0.75
		}
	}
	if got := floor(xs); got != 0.5 {
		t.Errorf("floor with 25 slow epochs = %v, want 0.5", got)
	}
	if got := median(xs); got != 0.75 {
		t.Errorf("median with 25 slow epochs = %v, want 0.75", got)
	}
}

func TestFloorTakesAtLeastThree(t *testing.T) {
	// A tenth of 16 epochs is one; the floor still averages three.
	xs := []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3}
	if got := floor(xs); got != 2 {
		t.Errorf("floor = %v, want mean(1,2,3)", got)
	}
	// A tenth of 40 is four.
	xs = append(make([]float64, 0, 40), 1, 2, 3, 4)
	for len(xs) < 40 {
		xs = append(xs, 50)
	}
	if got := floor(xs); got != 2.5 {
		t.Errorf("floor = %v, want mean(1,2,3,4)", got)
	}
	if got := floor([]float64{7, 5}); got != 6 {
		t.Errorf("floor of two = %v, want their mean", got)
	}
	if !math.IsNaN(floor(nil)) || !math.IsNaN(median(nil)) {
		t.Error("empty series must give NaN")
	}
}

func TestMedianAndTotalRatio(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// The ratio of totals weighs every op equally; the mean of per-epoch
	// ratios would say 2.
	if got := totalRatio([]float64{10, 300}, []float64{10, 100}); math.Abs(got-310.0/110) > 1e-12 {
		t.Errorf("totalRatio = %v", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2 {
		t.Errorf("nearest-rank p50 = %v", got)
	}
}

// scriptedTransport hands Recv the messages queued for it and swallows
// sends; it is the substrate of the FIFO matching test.
type scriptedTransport struct {
	transport.Transport
	inbox []transport.Message
}

func (s *scriptedTransport) Send(transport.Message) error          { return nil }
func (s *scriptedTransport) Broadcast(int, string, any, int) error { return nil }
func (s *scriptedTransport) Recv(int) (transport.Message, bool) {
	if len(s.inbox) == 0 {
		return transport.Message{}, false
	}
	m := s.inbox[0]
	s.inbox = s.inbox[1:]
	return m, true
}

func TestTransitMatchesFIFOUnderBroadcast(t *testing.T) {
	log := newWireLog(3)
	inner := &scriptedTransport{}
	spy := log.spyOn(inner).(*wireSpy)

	// Node 0 broadcasts twice with a point-to-point send to node 1 in
	// between, node 2 sends to node 1: pair (0,1) carries three messages,
	// (0,2) two and (2,1) one.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// The pauses only space the stamps out, so that a receive matched to
	// the wrong stamp shows in its transit.
	must(spy.Broadcast(0, "update", nil, 8))
	time.Sleep(2 * time.Millisecond)
	must(spy.Send(transport.Message{From: 0, To: 1, Kind: "lock-grant"}))
	must(spy.Send(transport.Message{From: 2, To: 1, Kind: "update"}))
	time.Sleep(2 * time.Millisecond)
	must(spy.Broadcast(0, "update", nil, 8))
	for pair, want := range map[[2]int]int{{0, 1}: 3, {0, 2}: 2, {2, 1}: 1, {1, 0}: 0} {
		q := &log.pairs[pair[0]*3+pair[1]]
		if got := len(q.stamps) - q.head; got != want {
			t.Errorf("pair %v holds %d stamps, want %d", pair, got, want)
		}
		if !sort.SliceIsSorted(q.stamps, func(i, j int) bool { return q.stamps[i] < q.stamps[j] }) {
			t.Errorf("pair %v stamps out of send order", pair)
		}
	}
	if got := log.inflightMax.Load(); got != 6 {
		t.Errorf("inflight max = %d, want 6", got)
	}

	// Node 1 receives its four messages interleaved across senders; each
	// receive must consume the oldest stamp of its own pair.
	inner.inbox = []transport.Message{{From: 0, To: 1}, {From: 2, To: 1}, {From: 0, To: 1}, {From: 0, To: 1}}
	for range inner.inbox {
		if _, ok := spy.Recv(1); !ok {
			t.Fatal("scripted receive failed")
		}
	}
	if got := len(log.transit); got != 4 {
		t.Fatalf("%d transits matched, want 4", got)
	}
	// Transits 0, 2 and 3 belong to pair (0,1). Its stamps are 2 ms apart
	// and the receives are back to back, so oldest-first matching gives
	// transits that shrink by about 2 ms each.
	a, b, c := log.transit[0], log.transit[2], log.transit[3]
	if !(a > b+1000 && b > c+1000 && c >= 0) {
		t.Errorf("pair (0,1) transits %v, %v, %v us: not matched oldest first", a, b, c)
	}
	if q := &log.pairs[0*3+1]; q.head != len(q.stamps) {
		t.Errorf("pair (0,1) not drained: %d left", len(q.stamps)-q.head)
	}
	if got := log.pairs[0*3+2].stamps; len(got) != 2 {
		t.Errorf("pair (0,2) must be untouched by node 1's receives, holds %d", len(got))
	}
	// A receive with no stamp (sent before the log existed) is counted but
	// not matched.
	inner.inbox = []transport.Message{{From: 1, To: 0}}
	spy.Recv(0)
	if len(log.transit) != 4 || log.recvs.Load() != 5 {
		t.Errorf("unmatched receive: %d transits, %d receives", len(log.transit), log.recvs.Load())
	}
	// The scripted transport is drained: Recv reports closed and the spy
	// passes that through.
	if _, ok := spy.Recv(0); ok {
		t.Error("closed transport reported a message")
	}
}

// tinyRun runs a workload at test size: four saturated epochs, two paced
// ones and, where the traced pass has them, two open-loop ones.
func tinyRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	open := 0
	if traced && w.openLoop {
		open = 2
	}
	res, err := runWorkload(w, 7, counts{saturated: 4, paced: 2, open: open}, traced, tiny)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s (traced=%v): correct=%v attempted=%d failed=%d: %v",
			w.name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
	return res
}

func metricNames(ms []metric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.name
	}
	sort.Strings(names)
	return names
}

func emittedNames(r *result) []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The decorators are transparent: a traced epoch runs the same generated
// input, puts the same traffic on the wire and passes the same checks as an
// untraced one; and each mode emits exactly the metrics its table lists.
func TestDecoratorsAreTransparent(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain, traced := tinyRun(t, w, false), tinyRun(t, w, true)
			if got, want := emittedNames(plain), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced run emitted %v, want %v", got, want)
			}
			if got, want := emittedNames(traced), metricNames(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced run emitted %v, want %v", got, want)
			}
			for name, m := range plain.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
				}
			}

			var sawTraced, sawPlain bool
			ref := plain.Epochs[0] // saturated, untraced
			for _, e := range traced.Epochs {
				if e.Phase != phaseSaturated {
					continue
				}
				sawTraced = sawTraced || e.Traced
				sawPlain = sawPlain || !e.Traced
				if e.Fingerprint != ref.Fingerprint || e.Ops != ref.Ops {
					t.Errorf("traced=%v epoch ran input %x (%d ops), untraced run %x (%d ops)",
						e.Traced, e.Fingerprint, e.Ops, ref.Fingerprint, ref.Ops)
				}
				// The outbox's linger flushes make the batched workload's
				// frame count depend on timing; the other three are exact.
				if w.name != "session-hybrid-batched-tcp" && (e.Msgs != ref.Msgs || e.Bytes != ref.Bytes) {
					t.Errorf("traced=%v epoch sent %d msgs / %d B, untraced run %d / %d",
						e.Traced, e.Msgs, e.Bytes, ref.Msgs, ref.Bytes)
				}
			}
			if !sawTraced || !sawPlain {
				t.Errorf("traced pass must alternate untraced and traced saturated epochs")
			}
			if got := traced.Metrics["tcp.decode_errors"].Value; got != 0 {
				t.Errorf("tcp.decode_errors = %v", got)
			}
			if got := traced.Metrics["core.writes_per_op"].Value; !(got > 0) {
				t.Errorf("the process decorator saw no writes: core.writes_per_op = %v", got)
			}
			if got := traced.Metrics["transport.send_ns_per_msg"].Value; !(got > 0) {
				t.Errorf("the transport decorator saw no sends: transport.send_ns_per_msg = %v", got)
			}
		})
	}
}

// A failed check fails every op of its epoch and the run.
func TestFailureAccounting(t *testing.T) {
	r := &result{Correct: true, Epochs: []epoch{
		{Phase: phaseSaturated, Ops: 100, Fingerprint: 1},
		{Phase: phaseSaturated, Ops: 100, Fingerprint: 1, Err: "hit counter 3 = 7, want 8"},
		{Phase: phaseSaturated, Ops: 100, Fingerprint: 2},
		{Phase: phasePaced, Ops: 10, Fingerprint: 9},
	}}
	r.verify()
	if r.Correct || r.Attempted != 310 || r.Failed != 200 || len(r.Failures) != 2 {
		t.Errorf("correct=%v attempted=%d failed=%d failures=%v", r.Correct, r.Attempted, r.Failed, r.Failures)
	}
	if v := newView(r.Epochs); len(v.sat) != 1 || len(v.paced) != 1 {
		t.Errorf("failed epochs must not feed the estimators: %d saturated, %d paced", len(v.sat), len(v.paced))
	}
}

// BENCHMARK.json and the metric and workload tables say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench/e2e"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./bench/e2e"}) {
		t.Errorf("command = %v", doc.Command)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", doc.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the table %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s[%d]: name %q or unit %q is outside the contract, or used twice", kind, i, g.Name, g.Unit)
			}
			seen[g.Name] = true
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: bound %v, the table %v (must be in (0, 0.25])", g.Name, g.Bound, m.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		g := doc.Workloads[i]
		if g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, g.Name, g.Why, w.name, w.why)
		}
		if !name.MatchString(g.Name) || len(g.Why) > 200 || seen[g.Name] {
			t.Errorf("workload %q: name or why outside the contract", g.Name)
		}
		seen[g.Name] = true
	}
}
