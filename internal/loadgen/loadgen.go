// Package loadgen generates the seeded, deterministic request streams the
// serving experiments (S1) drive the session/KV front-end with.
//
// Each worker strand owns one Gen: a self-contained splitmix64 RNG (no
// math/rand global state, no locking) feeding a zipfian key sampler and a
// read/write coin. The stream is a pure function of Config, so every
// process of a distributed run can replay any strand's trace — the
// visibility probers and the counter-verification pass both rely on
// replaying a peer's exact trace — and a fixed seed reproduces the same
// workload on the simulated fabric, loopback TCP, and multi-process runs.
//
// Two arrival disciplines are supported: closed-loop (the default;
// Request.Arrival is zero and the caller issues the next request when the
// previous completes) and open-loop (Config.Rate > 0: Arrival carries a
// seeded exponential arrival schedule the caller paces against,
// independent of completion times).
package loadgen

import (
	"math"
	"sort"
	"time"
)

// OpKind is the request type.
type OpKind uint8

// Request operation kinds.
const (
	// OpRead is a key lookup.
	OpRead OpKind = iota
	// OpWrite is a key store.
	OpWrite
)

// Request is one generated operation.
type Request struct {
	// Op is the operation kind, drawn from Config.ReadFraction.
	Op OpKind
	// Key is the key index in [0, Config.Keys), drawn zipfian.
	Key int
	// Arrival is this request's offset from the start of the stream under
	// the open-loop discipline (Config.Rate > 0); zero in closed-loop mode.
	Arrival time.Duration
}

// Config parameterizes one worker's request stream.
type Config struct {
	// Keys is the key-space size. Required, >= 1.
	Keys int
	// ZipfS is the zipfian skew exponent: key i is drawn with probability
	// proportional to 1/(i+1)^s. Zero means uniform.
	ZipfS float64
	// ReadFraction is the probability a request is a read (the rest are
	// writes).
	ReadFraction float64
	// Seed is the workload seed shared by the whole experiment.
	Seed int64
	// Worker distinguishes this strand's stream from its siblings'; it is
	// folded into the RNG state, so (Seed, Worker) determines the trace.
	Worker int
	// Rate, when positive, selects open-loop arrivals at this many
	// requests per second: Arrival offsets follow a seeded exponential
	// (Poisson) schedule. Zero selects closed-loop mode.
	Rate float64
}

// Gen produces one worker's deterministic request stream.
type Gen struct {
	rng   rng
	zipf  *Zipf
	cfg   Config
	clock time.Duration
}

// New builds a generator. Keys must be at least 1.
func New(cfg Config) *Gen {
	if cfg.Keys < 1 {
		cfg.Keys = 1
	}
	return &Gen{
		rng:  newRNG(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(cfg.Worker)*0xbf58476d1ce4e5b9 + 1),
		zipf: NewZipf(cfg.Keys, cfg.ZipfS),
		cfg:  cfg,
	}
}

// Next returns the stream's next request.
func (g *Gen) Next() Request {
	req, u := g.NextDeferred()
	req.Key = g.Key(u)
	return req
}

// NextDeferred returns the stream's next request with its key left unsampled:
// req.Key is zero and Key(u) is the key Next would have returned. A replay
// that needs the key of only some requests pays the sampler for those alone.
// This is the one definition of the draw order: the key's uniform, the
// read/write coin, and (open loop) the inter-arrival.
func (g *Gen) NextDeferred() (req Request, u float64) {
	u = g.rng.float64()
	req.Op = OpWrite
	if g.rng.float64() < g.cfg.ReadFraction {
		req.Op = OpRead
	}
	if g.cfg.Rate > 0 {
		// Exponential interarrival by inverse transform; 1-u avoids ln(0).
		dt := -math.Log(1-g.rng.float64()) / g.cfg.Rate
		g.clock += time.Duration(dt * float64(time.Second))
		req.Arrival = g.clock
	}
	return req, u
}

// Key maps a uniform returned by NextDeferred to its key.
func (g *Gen) Key(u float64) int { return g.zipf.Sample(u) }

// closedLoopDraws is how many uniforms NextDeferred consumes per request in
// closed-loop mode: the key's and the coin's.
const closedLoopDraws = 2

// Skip advances the stream past its next n requests (none if n <= 0),
// consuming exactly the draws n calls of Next would. In closed-loop mode that
// is O(1): splitmix64's state is a counter, so the draws are skipped, not
// made. In open-loop mode every skipped arrival still advances the clock.
func (g *Gen) Skip(n int) {
	if n <= 0 {
		return
	}
	if g.cfg.Rate <= 0 {
		g.rng.skip(uint64(n) * closedLoopDraws)
		return
	}
	for ; n > 0; n-- {
		g.NextDeferred()
	}
}

// Fingerprint hashes the first n requests of a fresh stream for cfg
// (FNV-1a over op, key, and arrival), so experiment rows can prove two
// runs — or two substrates — generated identical workloads.
func Fingerprint(cfg Config, n int) uint64 {
	g := New(cfg)
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	for i := 0; i < n; i++ {
		req := g.Next()
		mix(uint64(req.Op))
		mix(uint64(req.Key))
		mix(uint64(req.Arrival))
	}
	return h
}

// Zipf samples indexes in [0, n) with probability proportional to
// 1/(i+1)^s via the inverted CDF: exact for any s >= 0 and any n, with no
// rejection loop and no shared state.
//
// Sampling is Chen and Asau's indexed search. The unit interval is cut into m
// buckets, m the smallest power of two >= 4n, and guide[j] is the first CDF
// index whose value is >= j/m — sort.SearchFloat64s(cdf, j/m). A sample u
// starts at guide[floor(u*m)] and scans forward past CDF values below u.
// Because m is a power of two, u*m and j/m are exact in floating point, so
// j/m <= u for j = floor(u*m) and the bucket never starts past the answer:
// the result is the binary search's for every u, the same key for the same
// draw. Construction is O(n + m). A scan only passes CDF values inside u's
// bucket, and a uniform u lands in each bucket with probability 1/m, so a
// sample scans n/m <= 1/4 steps on average.
type Zipf struct {
	cdf   []float64
	guide []int
	m     float64 // len(guide), a power of two
}

// NewZipf builds the sampler. n must be >= 1; s < 0 is treated as 0
// (uniform).
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if s < 0 {
		s = 0
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // exact top end despite rounding
	m := 1
	for m < 4*n {
		m <<= 1
	}
	// One merge pass: the buckets' lower bounds j/m rise with j, so each
	// search starts where the last one ended.
	guide := make([]int, m)
	i := 0
	for j := range guide {
		for cdf[i] < float64(j)/float64(m) {
			i++
		}
		guide[j] = i
	}
	return &Zipf{cdf: cdf, guide: guide, m: float64(m)}
}

// Sample maps a uniform u in [0, 1) to a key index. It returns
// sort.SearchFloat64s(cdf, u) for every u, in or out of range.
func (z *Zipf) Sample(u float64) int {
	if !(u >= 0 && u < 1) {
		return sort.SearchFloat64s(z.cdf, u) // u outside [0, 1), or NaN
	}
	i := z.guide[int(u*z.m)]
	for z.cdf[i] < u {
		i++
	}
	return i
}

// rng is splitmix64: tiny, fast, and self-contained, so every strand owns
// its stream without touching math/rand's global state.
type rng struct {
	s uint64
}

func newRNG(seed uint64) rng { return rng{s: seed} }

// gamma is splitmix64's state increment: the k-th draw is a pure function of
// seed + k*gamma.
const gamma = 0x9e3779b97f4a7c15

func (r *rng) next() uint64 {
	r.s += gamma
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skip discards the next k draws.
func (r *rng) skip(k uint64) { r.s += k * gamma }

// float64 returns a uniform sample in [0, 1) with 53 significant bits.
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
