package apps

import (
	"reflect"
	"testing"

	"mixedmem/internal/dsm"
	"mixedmem/internal/loadgen"
)

// replayPinConfig is the configuration the golden replay pins were computed
// for, on the commit before replays drew keys lazily and the sampler became a
// guide table.
func replayPinConfig(rate float64) SessionConfig {
	return SessionConfig{
		Procs: 3, Workers: 1, Sessions: 16, SessionKeys: 16,
		AggEvery: 8, AggReadEvery: 16, VisEvery: 16,
		Seed: 1, Mode: SessionHybrid, Ops: 30000, Warmup: 3000, Rate: rate,
	}.WithDefaults()
}

// TestSessionReplayGolden pins the workload fingerprint, the expected hit
// counts and the flag plan lengths of one closed-loop and one open-loop
// configuration: the replays and the sampler changed, the trace did not.
func TestSessionReplayGolden(t *testing.T) {
	for _, tc := range []struct {
		rate  float64
		fp    uint64
		hits  []int64
		flags []int
	}{
		{0, 0xd4270f91ad6fb387, []int64{2662, 1824, 1579, 1417, 1366, 1171, 1177, 1179}, []int{933, 935, 932}},
		{8000, 0x728ff416f391847d, []int64{2698, 1863, 1551, 1438, 1304, 1181, 1155, 1185}, []int{937, 940, 932}},
	} {
		c := replayPinConfig(tc.rate)
		if got := c.WorkloadFingerprint(); got != tc.fp {
			t.Errorf("rate %v: WorkloadFingerprint = %#x, want %#x", tc.rate, got, tc.fp)
		}
		if got := c.ExpectedHits(); !reflect.DeepEqual(got, tc.hits) {
			t.Errorf("rate %v: ExpectedHits = %v, want %v", tc.rate, got, tc.hits)
		}
		for p, want := range tc.flags {
			if got := len(c.FlagPlan(p, 0)); got != want {
				t.Errorf("rate %v: strand (%d,0) plans %d flags, want %d", tc.rate, p, got, want)
			}
		}
	}
}

// refFlagPlan and refExpectedHits are the replays as they were: Next for
// every request of the trace.
func refFlagPlan(c SessionConfig, proc, worker int) []visProbe {
	if !c.visEnabled() {
		return nil
	}
	g := loadgen.New(c.genConfig(proc, worker))
	var plan []visProbe
	writes := 0
	for i := 0; i < c.Warmup+c.Ops; i++ {
		req := g.Next()
		if req.Op != loadgen.OpWrite || i < c.Warmup {
			continue
		}
		if writes%c.VisEvery == 0 {
			s := req.Key / c.SessionKeys
			plan = append(plan, visProbe{Session: s, Key: req.Key % c.SessionKeys, Follower: c.follower(proc, s)})
		}
		writes++
	}
	return plan
}

func refExpectedHits(c SessionConfig) []int64 {
	c = c.WithDefaults()
	hits := make([]int64, c.AggGroups)
	if c.AggEvery <= 0 {
		return hits
	}
	for p := 0; p < c.Procs; p++ {
		for w := 0; w < c.Workers; w++ {
			g := loadgen.New(c.genConfig(p, w))
			for i := 0; i < c.Warmup+c.Ops; i++ {
				req := g.Next()
				if i%c.AggEvery == 0 {
					hits[c.aggGroup(p, req.Key)]++
				}
			}
		}
	}
	return hits
}

// TestLazyReplaysMatchFullReplay: FlagPlan and ExpectedHits, which skip the
// draws they do not use, agree with a replay that calls Next for every
// request, across periods that do and do not divide the trace, warmups from
// none to negative, and both arrival disciplines.
func TestLazyReplaysMatchFullReplay(t *testing.T) {
	for _, rate := range []float64{0, 3000} {
		for _, tc := range []struct{ ops, warmup, aggEvery, visEvery int }{
			{500, 40, 8, 16},
			{333, 17, 3, 5},
			{100, 7, 1000, 2},
			{200, -1, 1, 1},  // zero would take the default; a negative
			{250, -30, 7, 3}, // warmup shortens the trace instead
		} {
			c := SessionConfig{
				Procs: 3, Workers: 2, Sessions: 4, SessionKeys: 8,
				Ops: tc.ops, Warmup: tc.warmup, AggEvery: tc.aggEvery, VisEvery: tc.visEvery,
				Seed: 5, Rate: rate,
			}.WithDefaults()
			if got, want := c.ExpectedHits(), refExpectedHits(c); !reflect.DeepEqual(got, want) {
				t.Errorf("rate %v %+v: ExpectedHits = %v, full replay says %v", rate, tc, got, want)
			}
			for p := 0; p < c.Procs; p++ {
				for w := 0; w < c.Workers; w++ {
					got, want := c.FlagPlan(p, w), refFlagPlan(c, p, w)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("rate %v %+v: FlagPlan(%d,%d) = %v, full replay says %v", rate, tc, p, w, got, want)
					}
				}
			}
		}
	}
}

var (
	planSink  []visProbe
	hitsSink  []int64
	scopeSink *dsm.ScopeMap
)

// BenchmarkFlagPlan is one strand's flag-plan replay at the bench/e2e session
// configuration (33 000 requests): what each prober and each scope builder
// replays per strand.
func BenchmarkFlagPlan(b *testing.B) {
	c := replayPinConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		planSink = c.FlagPlan(i%c.Procs, 0)
	}
}

// BenchmarkExpectedHits is the counter-verification replay of the whole
// bench/e2e session fleet (three strands of 33 000 requests): what each
// process replays once per epoch.
func BenchmarkExpectedHits(b *testing.B) {
	c := replayPinConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hitsSink = c.ExpectedHits()
	}
}

// BenchmarkSessionScope is the hybrid placement's construction at the same
// configuration: the session scopes plus two registered locations per flag of
// every strand — part of what bench/e2e charges to setup_s.
func BenchmarkSessionScope(b *testing.B) {
	c := replayPinConfig(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scopeSink = SessionScope(c)
	}
}
