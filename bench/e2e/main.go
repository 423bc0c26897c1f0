// Command e2e is the repository's benchmark: four fixed-work workloads on
// one P, measured from outside the program. README.md in this directory
// defines every workload, metric and estimator; BENCHMARK.json at the
// repository root is the machine-readable contract.
//
//	go run ./bench/e2e                                   # all four workloads, end-to-end metrics
//	go run ./bench/e2e -workload jacobi-barrier-sim -trace 1   # one workload, per-layer metrics
//	go run ./bench/e2e -selfcheck                        # do two sets of runs agree within the bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// Epoch-count floors: below these the floor and median estimators lose
// their footing, whatever -seconds says.
const (
	minSaturatedEpochs = 16
	minPacedEpochs     = 12
	// tracedEpochsPerPhase counts the traced pass's epochs in each phase,
	// untraced and traced alternating: three of each, the floor's minimum.
	tracedEpochsPerPhase = 6
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs all four, each in a process of its own")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", defaultSeconds, "measuring time the epoch counts are sized for")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics with every tracer and decorator off; 1: the traced pass and the per-layer metrics")
		out       = flag.String("out", "bench/e2e/out", "directory for the run's raw JSON (per-epoch series); empty writes none")
		selfcheck = flag.Bool("selfcheck", false, "run every workload A B A B and check that A and B agree within the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds, *out))
	case *name == "":
		code := 0
		for _, w := range workloads {
			if _, err := runChild(w.name, *seed, *seconds, *trace, *out, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
				code = 1
			}
		}
		os.Exit(code)
	}

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// One P: every goroutine hand-off is a run-queue operation and ops/s is
	// ops per core-second, the program's CPU path length (README: why one P).
	runtime.GOMAXPROCS(1)
	traced := *trace == 1
	res, err := runWorkload(w, *seed, plan(w, *seconds, traced), traced, frozen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := res.write(*out); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: raw output not written: %v\n", err)
		}
	}
	fmt.Println(res.summaryLine())
	if !res.Correct {
		os.Exit(1)
	}
}

// measured is one metric's value in a run.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the document -out receives.
type result struct {
	Workload   string `json:"workload"`
	OpUnit     string `json:"op_unit"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// EpochCounts is the epochs run, by phase.
	EpochCounts map[string]int `json:"epoch_counts"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Metrics map[string]measured `json:"metrics"`
	// Estimators names, per metric, how the value was taken from the epochs.
	Estimators map[string]string `json:"estimators"`
	order      []metric
	// Epochs is the raw series, so that medians and quartiles can be
	// recomputed.
	Epochs []epoch `json:"epochs"`
	// Claim is what this run claims to have improved: nothing.
	Claim *string `json:"claim"`
}

// counts is how many epochs of each phase a run executes.
type counts struct{ saturated, paced, open int }

// plan turns -seconds into epoch counts. Set-up, teardown, verification
// and the collections between epochs take about a seventh of a run; of the
// rest the saturated phase gets 60 % and the paced phase 25 %. The work per
// epoch never changes, and neither does the count for a given -seconds: a
// faster program finishes sooner.
func plan(w workload, seconds int, traced bool) counts {
	n := counts{
		saturated: int(math.Round(0.60 * float64(seconds) / w.satNominalS)),
		paced:     int(math.Round(0.25 * float64(seconds) / w.pacedNominalS)),
	}
	if n.saturated < minSaturatedEpochs {
		n.saturated = minSaturatedEpochs
	}
	if n.paced < minPacedEpochs {
		n.paced = minPacedEpochs
	}
	if traced {
		// The traced pass is short — tracing makes a saturated epoch up to
		// ten times dearer: per phase three traced epochs, each next to an
		// untraced one (which prices the tracing and gives the figures
		// tracing would distort); the open-loop phase on the session
		// workloads only.
		n = counts{saturated: tracedEpochsPerPhase, paced: tracedEpochsPerPhase}
		if w.openLoop {
			n.open = tracedEpochsPerPhase
		}
	}
	return n
}

// runWorkload runs the epochs of the workload and computes its metrics.
// With traced set, every other epoch of each phase runs under the
// decorators and the event tracer.
func runWorkload(w workload, seed int64, n counts, traced bool, z sizes) (*result, error) {
	r, err := w.prepare(seed, z)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	res := &result{Workload: w.name, OpUnit: w.opUnit, Seed: seed,
		Traced: traced, GoMaxProcs: runtime.GOMAXPROCS(0), Correct: true}

	// The phases are interleaved so that each spans the whole run: a slow
	// stretch of the machine shorter than the run then leaves every phase
	// with undisturbed epochs for the floor to find.
	phases := []struct {
		name       string
		want, done int
	}{{phaseSaturated, n.saturated, 0}, {phasePaced, n.paced, 0}, {phaseOpen, n.open, 0}}
	for {
		// Run the phase that is furthest behind its share.
		next := -1
		for i, ph := range phases {
			if ph.done < ph.want && (next < 0 || ph.done*phases[next].want < phases[next].done*ph.want) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		ph := &phases[next]
		var tr *tracing
		if traced && ph.done%2 == 1 {
			tr = newTracing(ph.name)
		}
		ph.done++
		res.Epochs = append(res.Epochs, r.epoch(ph.name, tr))
		// Every epoch starts from a collected heap.
		runtime.GC()
	}

	res.verify()
	v := newView(res.Epochs)
	res.order = endToEnd
	if traced {
		res.order = perLayer
	}
	res.Metrics = make(map[string]measured, len(res.order))
	res.Estimators = make(map[string]string, len(res.order))
	for _, m := range res.order {
		res.Metrics[m.name] = measured{Value: finite(m.value(v)), Unit: m.unit}
		res.Estimators[m.name] = m.estimator
	}
	return res, nil
}

// verify does the failure accounting: an epoch whose check failed fails
// every one of its ops, and epochs of one phase must have run the same
// generated input (traced or not).
func (r *result) verify() {
	fingerprint := map[string]uint64{}
	r.EpochCounts = map[string]int{}
	for i := range r.Epochs {
		e := &r.Epochs[i]
		r.EpochCounts[e.Phase]++
		if want, seen := fingerprint[e.Phase]; !seen {
			fingerprint[e.Phase] = e.Fingerprint
		} else if e.Err == "" && e.Fingerprint != want {
			e.Err = fmt.Sprintf("input fingerprint %x differs from the phase's first epoch %x", e.Fingerprint, want)
		}
		r.Attempted += e.Ops
		if e.Err != "" {
			r.Failed += e.Ops
			r.Correct = false
			r.Failures = append(r.Failures, fmt.Sprintf("%s epoch %d: %s", e.Phase, i, e.Err))
		}
	}
	if r.Attempted == 0 {
		r.Correct = false
	}
}

func (r *result) print(w *os.File) {
	kind := "end-to-end (tracing off)"
	if r.Traced {
		kind = "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "%s  seed=%d  op=%s  epochs: %d saturated, %d paced, %d open-loop  %s\n",
		r.Workload, r.Seed, r.OpUnit, r.EpochCounts[phaseSaturated], r.EpochCounts[phasePaced],
		r.EpochCounts[phaseOpen], kind)
	for _, m := range r.order {
		fmt.Fprintf(w, "  %-36s %16s %-6s %s\n", m.name,
			strconv.FormatFloat(r.Metrics[m.name].Value, 'g', 6, 64), m.unit, m.estimator)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	traced := 0
	if r.Traced {
		traced = 1
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, traced)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// summary is the one-line result the benchmark contract asks for.
type summary struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func (r *result) summaryLine() string {
	data, err := json.Marshal(summary{Correct: r.Correct, Attempted: r.Attempted,
		Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		panic(err) // every value was made finite
	}
	return string(data)
}

// runChild runs one workload in a process of its own — what a driver of
// the benchmark does, and the only way peak_rss_mb is the workload's own —
// echoes its report to echo, and returns its one-line summary.
func runChild(workload string, seed int64, seconds, trace int, out string, echo *os.File) (*summary, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	if echo != nil {
		echo.Write(stdout)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		if runErr == nil {
			runErr = fmt.Errorf("no summary line: %w", err)
		}
		return nil, runErr
	}
	return &s, runErr
}

// runSelfcheck runs every workload four times, A B A B, and compares the
// two sets on every end-to-end metric against the metric's bound.
func runSelfcheck(seed int64, seconds int, out string) int {
	code := 0
	fmt.Printf("%-28s %-20s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, w := range workloads {
		var sets [2][]*summary
		for i := 0; i < 4; i++ {
			s, err := runChild(w.name, seed, seconds, 0, out, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2e: selfcheck: %s: %v\n", w.name, err)
				return 1
			}
			sets[i%2] = append(sets[i%2], s)
		}
		for _, m := range endToEnd {
			set := func(ss []*summary) float64 {
				return (ss[0].Metrics[m.name].Value + ss[1].Metrics[m.name].Value) / 2
			}
			a, b := set(sets[0]), set(sets[1])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if !(diff <= m.bound) {
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Printf("%-28s %-20s %14.6g %14.6g %7.2f%% %6.0f%%%s\n",
				w.name, m.name, a, b, diff*100, m.bound*100, verdict)
		}
	}
	return code
}
