package main

import (
	"math"

	"mixedmem/internal/dsm"
	"mixedmem/internal/obs"
	"mixedmem/internal/syncmgr"
)

// Estimator names, as they appear in the output.
const (
	estFloor  = "floor: mean of the fastest 10% of epochs (at least 3)"
	estRatio  = "ratio of totals over saturated epochs"
	estSingle = "single value"
)

// metric is one named number of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two in step.
type metric struct {
	name, unit, better string
	estimator          string
	// bound is the share by which an end-to-end metric may worsen before a
	// change counts as a regression; per-layer metrics have none.
	bound float64
	value func(v *view) float64
}

// view is one run's epochs, split the way the metric definitions need: by
// phase, and by whether the harness's decorators and the event tracer were
// on. The end-to-end measurement has only untraced epochs; in the traced
// pass every other epoch of each phase is traced.
type view struct {
	sat, satTraced     []epoch
	paced, pacedTraced []epoch
	// open are the session workloads' open-loop epochs, which only the
	// traced pass runs.
	open, openTraced []epoch

	// codec memoises the codec cell, which three metrics share.
	codec *[3]float64
}

func newView(epochs []epoch) *view {
	v := &view{}
	lists := map[string][2]*[]epoch{ // phase -> untraced, traced
		phaseSaturated: {&v.sat, &v.satTraced},
		phasePaced:     {&v.paced, &v.pacedTraced},
		phaseOpen:      {&v.open, &v.openTraced},
	}
	for _, e := range epochs {
		if e.Err != "" {
			continue // a failed epoch measured something other than the workload
		}
		list := lists[e.Phase][0]
		if e.Traced {
			list = lists[e.Phase][1]
		}
		*list = append(*list, e)
	}
	return v
}

func series(es []epoch, f func(e *epoch) float64) []float64 {
	xs := make([]float64, len(es))
	for i := range es {
		xs[i] = f(&es[i])
	}
	return xs
}

// over is Σ f(layers) over the epochs.
func over(es []epoch, f func(l *layerSample) float64) float64 {
	var t float64
	for i := range es {
		t += f(es[i].layers)
	}
	return t
}

func epochOps(e *epoch) float64 { return float64(e.Ops) }

func opsOf(es []epoch) float64 { return sum(series(es, epochOps)) }

// perOp is the total-ratio estimator over the epochs: Σ count / Σ ops.
func perOp(es []epoch, count func(e *epoch) float64) float64 {
	return totalRatio(series(es, count), series(es, epochOps))
}

// div is a/b, and 0 where the layer did nothing (b == 0).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps the estimators' "no data" (NaN, ±Inf) to 0 so the output stays
// valid JSON; runWorkload applies it to every metric.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func wallPerOp(e *epoch) float64 { return e.WallS / float64(e.Ops) }

var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", estimator: estFloor, bound: 0.25,
		value: func(v *view) float64 { return floor(series(v.sat, func(e *epoch) float64 { return e.SetupS })) }},
	{name: "ops_per_s", unit: "1/s", better: "higher", estimator: estFloor, bound: 0.20,
		value: func(v *view) float64 { return 1 / floor(series(v.sat, wallPerOp)) }},
	{name: "vis_p50_us", unit: "us", better: "lower", estimator: estFloor, bound: 0.25,
		value: func(v *view) float64 { return floor(series(v.paced, func(e *epoch) float64 { return e.VisP50US })) }},
	{name: "paced_cpu_us_per_op", unit: "us", better: "lower", estimator: estFloor, bound: 0.25,
		value: func(v *view) float64 {
			return floor(series(v.paced, func(e *epoch) float64 { return e.CPUS / float64(e.Ops) * 1e6 }))
		}},
	{name: "wire_msgs_per_op", unit: "1", better: "lower", estimator: estRatio, bound: 0.01,
		value: func(v *view) float64 { return perOp(v.sat, func(e *epoch) float64 { return float64(e.Msgs) }) }},
	{name: "wire_bytes_per_op", unit: "B", better: "lower", estimator: estRatio, bound: 0.01,
		value: func(v *view) float64 { return perOp(v.sat, func(e *epoch) float64 { return float64(e.Bytes) }) }},
	{name: "allocs_per_op", unit: "1", better: "lower", estimator: estRatio, bound: 0.02,
		value: func(v *view) float64 { return perOp(v.sat, func(e *epoch) float64 { return float64(e.Allocs) }) }},
	{name: "peak_rss_mb", unit: "MB", better: "lower", estimator: estSingle, bound: 0.25,
		value: func(*view) float64 { return peakRSSMB() }},
}

// clockMean is the mean time per call of one procSpy category, in ns.
func clockMean(es []epoch, op int) float64 {
	return div(over(es, func(l *layerSample) float64 { return float64(l.clock.ns[op]) }),
		over(es, func(l *layerSample) float64 { return float64(l.clock.calls[op]) }))
}

func clockCallsPerOp(es []epoch, op int) float64 {
	return div(over(es, func(l *layerSample) float64 { return float64(l.clock.calls[op]) }), opsOf(es))
}

// kindsPerOp is the always-on per-kind message count per op.
func kindsPerOp(es []epoch, kinds ...string) float64 {
	return div(over(es, func(l *layerSample) float64 {
		var n uint64
		for _, k := range kinds {
			n += l.perKind[k]
		}
		return float64(n)
	}), opsOf(es))
}

// explainSeg is the median over the traced latency epochs of one chain
// segment's p50.
func explainSeg(seg int) func(v *view) float64 {
	return func(v *view) float64 {
		var xs []float64
		for _, e := range v.latency(true) {
			if b := e.layers.explain; b != nil && b.Samples > b.Incomplete {
				xs = append(xs, float64(b.SegP50[seg])/1e3)
			}
		}
		return median(xs)
	}
}

func latencyMedian(f func(l *layerSample) float64) func(v *view) float64 {
	return func(v *view) float64 {
		return median(series(v.latency(false), func(e *epoch) float64 { return f(e.layers) }))
	}
}

func pooledTransit(v *view) []float64 {
	var xs []float64
	for _, e := range v.latency(true) {
		xs = append(xs, e.layers.transitUS...)
	}
	return xs
}

// codecCellOf times the codec on the payloads the traced saturated epochs
// captured: encode ns, decode ns and bytes per message.
func codecCellOf(v *view, i int) float64 {
	if v.codec == nil {
		var xs []wireSample
		for _, e := range v.satTraced {
			xs = append(xs, e.layers.codec...)
		}
		enc, dec, size := codecCell(xs)
		v.codec = &[3]float64{enc, dec, size}
	}
	return v.codec[i]
}

var perLayer = []metric{
	// apps (+ loadgen, hist)
	{name: "apps.self_us_per_op", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.satTraced, func(l *layerSample) float64 {
			return float64(l.clock.strandNS-l.clock.inCoreNS()) / 1e3
		}), opsOf(v.satTraced))
	}},
	{name: "apps.op_p50_us", unit: "us", better: "lower", value: latencyMedian(func(l *layerSample) float64 { return l.opP50US })},
	{name: "apps.op_p99_us", unit: "us", better: "lower", value: latencyMedian(func(l *layerSample) float64 { return l.opP99US })},
	{name: "apps.vis_p99_us", unit: "us", better: "lower", value: latencyMedian(func(l *layerSample) float64 { return l.visP99US })},
	{name: "apps.open_rate_share", unit: "1", better: "higher", value: func(v *view) float64 {
		return median(series(v.open, func(e *epoch) float64 { return e.NominalS / e.WallS }))
	}},
	{name: "apps.open_vis_p50_us", unit: "us", better: "lower", value: func(v *view) float64 {
		return median(series(v.open, func(e *epoch) float64 { return e.VisP50US }))
	}},
	{name: "apps.open_cpu_us_per_op", unit: "us", better: "lower", value: func(v *view) float64 {
		return median(series(v.open, func(e *epoch) float64 { return e.CPUS / float64(e.Ops) * 1e6 }))
	}},

	// core -> dsm operations
	{name: "core.write_ns", unit: "ns", better: "lower", value: func(v *view) float64 { return clockMean(v.satTraced, opWrite) }},
	{name: "core.writes_per_op", unit: "1", better: "lower", value: func(v *view) float64 { return clockCallsPerOp(v.satTraced, opWrite) }},
	{name: "core.read_ns", unit: "ns", better: "lower", value: func(v *view) float64 { return clockMean(v.satTraced, opRead) }},
	{name: "core.reads_per_op", unit: "1", better: "lower", value: func(v *view) float64 { return clockCallsPerOp(v.satTraced, opRead) }},
	{name: "core.await_us", unit: "us", better: "lower", value: func(v *view) float64 { return clockMean(v.satTraced, opAwait) / 1e3 }},

	// dsm receive path
	{name: "dsm.apply_us_per_msg", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.satTraced, func(l *layerSample) float64 { return float64(l.busyNS) / 1e3 }),
			over(v.satTraced, func(l *layerSample) float64 { return float64(l.recvs) }))
	}},
	{name: "dsm.recv_busy_share", unit: "1", better: "lower", value: func(v *view) float64 {
		busy := over(v.satTraced, func(l *layerSample) float64 { return float64(l.busyNS) })
		return div(busy, busy+over(v.satTraced, func(l *layerSample) float64 { return float64(l.idleNS) }))
	}},

	// dsm waits (always-on counters)
	{name: "dsm.blocked_await_us_per_op", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.blockedAwaitNS) / 1e3 }), opsOf(v.sat))
	}},
	{name: "dsm.blocked_causal_us_per_op", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.blockedCausalNS) / 1e3 }), opsOf(v.sat))
	}},
	{name: "dsm.blocked_invalidation_us_per_op", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.blockedInvalNS) / 1e3 }), opsOf(v.sat))
	}},

	// dsm visibility chain (obs.Explain over the traced latency epochs)
	{name: "explain.issue_p50_us", unit: "us", better: "lower", value: explainSeg(obs.SegIssue)},
	{name: "explain.outbox_p50_us", unit: "us", better: "lower", value: explainSeg(obs.SegOutbox)},
	{name: "explain.wire_p50_us", unit: "us", better: "lower", value: explainSeg(obs.SegWire)},
	{name: "explain.apply_p50_us", unit: "us", better: "lower", value: explainSeg(obs.SegApply)},
	{name: "explain.depwait_p50_us", unit: "us", better: "lower", value: explainSeg(obs.SegDepWait)},
	{name: "explain.wakeup_p50_us", unit: "us", better: "lower", value: explainSeg(obs.SegWakeup)},
	{name: "explain.attribution_min", unit: "1", better: "higher", value: func(v *view) float64 {
		var xs []float64
		for _, e := range v.latency(true) {
			if b := e.layers.explain; b != nil && b.Samples > b.Incomplete {
				xs = append(xs, b.MinAttribution)
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return minOf(xs)
	}},

	// codec
	{name: "codec.encode_ns_per_msg", unit: "ns", better: "lower", value: func(v *view) float64 { return codecCellOf(v, 0) }},
	{name: "codec.decode_ns_per_msg", unit: "ns", better: "lower", value: func(v *view) float64 { return codecCellOf(v, 1) }},
	{name: "codec.bytes_per_msg", unit: "B", better: "lower", value: func(v *view) float64 { return codecCellOf(v, 2) }},

	// transport (network, transport/tcp)
	{name: "transport.send_ns_per_msg", unit: "ns", better: "lower", value: func(v *view) float64 {
		return div(over(v.satTraced, func(l *layerSample) float64 { return float64(l.sendNS) }),
			over(v.satTraced, func(l *layerSample) float64 { return float64(l.sends) }))
	}},
	{name: "transport.transit_p50_us", unit: "us", better: "lower", value: func(v *view) float64 { return quantile(pooledTransit(v), 0.5) }},
	{name: "transport.transit_p99_us", unit: "us", better: "lower", value: func(v *view) float64 { return quantile(pooledTransit(v), 0.99) }},
	{name: "transport.inflight_max", unit: "count", better: "lower", value: func(v *view) float64 {
		return maxOf(series(v.satTraced, func(e *epoch) float64 { return float64(e.layers.inflightMax) }))
	}},
	{name: "tcp.replayed_msgs", unit: "count", better: "lower", value: func(v *view) float64 {
		return over(v.all(), func(l *layerSample) float64 { return float64(l.replayed) })
	}},
	{name: "tcp.decode_errors", unit: "count", better: "lower", value: func(v *view) float64 {
		return over(v.all(), func(l *layerSample) float64 { return float64(l.decodeErrors) })
	}},

	// wire mix (always-on counters)
	{name: "wire.update_msgs_per_op", unit: "1", better: "lower", value: func(v *view) float64 { return kindsPerOp(v.sat, dsm.KindUpdate) }},
	{name: "wire.batch_msgs_per_op", unit: "1", better: "lower", value: func(v *view) float64 { return kindsPerOp(v.sat, dsm.KindUpdateBatch) }},
	{name: "wire.lock_msgs_per_op", unit: "1", better: "lower", value: func(v *view) float64 {
		return kindsPerOp(v.sat, syncmgr.KindLockReq, syncmgr.KindLockGrant, syncmgr.KindLockRel)
	}},
	{name: "wire.flush_msgs_per_op", unit: "1", better: "lower", value: func(v *view) float64 {
		return kindsPerOp(v.sat, syncmgr.KindFlush, syncmgr.KindFlushAck)
	}},
	{name: "wire.barrier_msgs_per_op", unit: "1", better: "lower", value: func(v *view) float64 {
		return kindsPerOp(v.sat, syncmgr.KindBarArrive, syncmgr.KindBarRelease)
	}},

	// syncmgr (always-on counters) and what the caller saw (procSpy)
	{name: "syncmgr.barrier_wait_us", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.barrierNS) / 1e3 }),
			over(v.sat, func(l *layerSample) float64 { return float64(l.barriers) }))
	}},
	{name: "syncmgr.barriers_per_op", unit: "1", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.barriers) }), opsOf(v.sat))
	}},
	{name: "syncmgr.acquire_wait_us", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.acquireNS) / 1e3 }),
			over(v.sat, func(l *layerSample) float64 { return float64(l.acquires) }))
	}},
	{name: "syncmgr.release_wait_us", unit: "us", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.releaseNS) / 1e3 }),
			over(v.sat, func(l *layerSample) float64 { return float64(l.acquires) }))
	}},
	{name: "syncmgr.acquires_per_op", unit: "1", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.acquires) }), opsOf(v.sat))
	}},
	{name: "core.barrier_us", unit: "us", better: "lower", value: func(v *view) float64 { return clockMean(v.satTraced, opBarrier) / 1e3 }},
	{name: "core.lock_us", unit: "us", better: "lower", value: func(v *view) float64 { return clockMean(v.satTraced, opLock) / 1e3 }},
	{name: "core.unlock_us", unit: "us", better: "lower", value: func(v *view) float64 { return clockMean(v.satTraced, opUnlock) / 1e3 }},

	// obs: the price of the traced pass
	{name: "obs.trace_overhead_pct", unit: "%", better: "lower", value: func(v *view) float64 {
		return (floor(series(v.satTraced, wallPerOp))/floor(series(v.sat, wallPerOp)) - 1) * 100
	}},
	{name: "obs.ring_dropped", unit: "count", better: "lower", value: func(v *view) float64 {
		return over(v.all(), func(l *layerSample) float64 { return float64(l.ringDropped) })
	}},

	// Go runtime
	{name: "go.gc_cpu_share", unit: "1", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return l.gcCPUS }),
			over(v.sat, func(l *layerSample) float64 { return l.cpuTotalS }))
	}},
	{name: "go.gc_cycles_per_kop", unit: "1", better: "lower", value: func(v *view) float64 {
		return div(over(v.sat, func(l *layerSample) float64 { return float64(l.gcCycles) }), opsOf(v.sat)) * 1e3
	}},
	{name: "go.heap_peak_mb", unit: "MB", better: "lower", value: func(v *view) float64 {
		return maxOf(series(v.sat, func(e *epoch) float64 { return e.layers.heapMB }))
	}},
}

func (v *view) all() []epoch {
	var all []epoch
	for _, es := range [][]epoch{v.sat, v.satTraced, v.paced, v.pacedTraced, v.open, v.openTraced} {
		all = append(all, es...)
	}
	return all
}

// latency is the epochs the traced pass takes its latency figures from:
// the open-loop epochs where the workload has them (realistic traffic:
// linger timers, idle wake-ups), otherwise the probe's. The untraced ones
// give the application's own latency summaries, the traced ones the
// anatomy.
func (v *view) latency(traced bool) []epoch {
	open, paced := v.open, v.paced
	if traced {
		open, paced = v.openTraced, v.pacedTraced
	}
	if len(v.open)+len(v.openTraced) > 0 {
		return open
	}
	return paced
}
