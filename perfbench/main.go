// Command perfbench is the repository benchmark. One invocation runs one
// named workload in a single process with one closed-loop client, checks
// every output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced run) as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload cold-corpus --seed 7 --seconds 20 --trace 0
//
// Workloads (see README.md for the layer map):
//
//	cold-corpus       cold Engine.Compute + Config.Lies(3) over five corpus topologies
//	session-drift     NSF session over HTTP: POST /update (diurnal box) + GET /lies
//	session-failover  NSF session with failover plan over HTTP: fail/lies/recover/lies per link
//	sweep-golden      the golden sweep campaign, fresh, into an empty cache
//
// The benchmark drives only public entry points (the coyote package, the
// internal/serve HTTP handler on a 127.0.0.1 listener, sweep.Run) and reads
// per-layer counts from the obs.Default registry (which backs
// lp.GlobalStats) and from spans; it
// changes nothing inside the program.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
)

// workload is one benchmark scenario. setup builds the system under test
// (timed as setup_s), attaching tr to the program's tracer hooks when it is
// non-nil; pass runs one whole pass of operations, recording
// each through rec. Passes are the unit of the measured loop, so every run
// covers whole passes and the op-latency distribution keeps its shape.
type workload interface {
	setup(tr *obs.Tracer) error
	pass(ctx context.Context, p int, rec *recorder)
	// layers adds the workload's per-layer metrics of a traced run.
	layers(lm layerMetrics, spans []obs.SpanRecord, ph phase)
	close()
}

var workloads = map[string]func(seed int64) (workload, error){
	"cold-corpus":      newColdCorpus,
	"session-drift":    newSessionDrift,
	"session-failover": newSessionFailover,
	"sweep-golden":     newSweepGolden,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "workload seed: generates the inputs (sweep-golden ignores it)")
	seconds := fs.Float64("seconds", 10, "minimum measured time; the loop stops at the first pass boundary after it")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(stdout, *name, *seed, mk, dur)
	} else {
		var w workload
		if w, err = mk(*seed); err == nil {
			res, err = runPlain(stdout, w, dur)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: output checks failed")
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// An untraced run repeats setup at least minSetups times and until
// minSetupTime has passed (at most maxSetups times); setup_s is the
// median. The last set-up system is the one measured.
const (
	minSetups    = 3
	maxSetups    = 1000
	minSetupTime = 2 * time.Second
)

// phase is the outcome of one measured loop.
type phase struct {
	rec     *recorder
	elapsed time.Duration
	delta   counters // obs.Default deltas over the loop only
	alloc   uint64   // TotalAlloc delta over the loop
}

// measure runs whole passes until at least dur has elapsed. The registry
// delta and allocation count cover exactly the loop: set-up work before it
// is excluded.
func measure(ctx context.Context, w workload, dur time.Duration, rec *recorder) phase {
	var ms0, ms1 runtime.MemStats
	var elapsed time.Duration
	runtime.ReadMemStats(&ms0)
	delta := phaseDelta(obs.Default, func() {
		start := time.Now()
		for p := 0; p == 0 || time.Since(start) < dur; p++ {
			rec.pass = p
			w.pass(ctx, p, rec)
		}
		elapsed = time.Since(start)
	})
	runtime.ReadMemStats(&ms1)
	return phase{rec: rec, elapsed: elapsed, delta: delta, alloc: ms1.TotalAlloc - ms0.TotalAlloc}
}

// liveHeapMB forces a collection and reports the live heap. It is only
// ever called outside timed regions.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runPlain(stdout io.Writer, w workload, dur time.Duration) (result, error) {
	defer w.close()
	var setups []float64
	var total time.Duration
	for i := 0; i < minSetups || (total < minSetupTime && i < maxSetups); i++ {
		if i > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		total += d
		setups = append(setups, d.Seconds())
	}
	heap := liveHeapMB()
	rec := newRecorder()
	ph := measure(context.Background(), w, dur, rec)
	heap = math.Max(heap, liveHeapMB())

	res := finish(stdout, ph)
	ops := len(rec.ops)
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {float64(ops) / ph.elapsed.Seconds(), "1/s"},
		"op_p50_s":        {median(rec.ops), "s"},
		"alloc_mb_per_op": {float64(ph.alloc) / (1 << 20) / float64(ops), "MB"},
		"live_heap_mb":    {heap, "MB"},
	}
	fmt.Fprintf(stdout, "setup_s: median of %d set-ups, min %.6f max %.6f\n",
		len(setups), slices.Min(setups), slices.Max(setups))
	rec.printLatencies(stdout)
	return res, nil
}

// finish applies the checks every run shares (per-op checks, dense LP
// fallbacks), prints the digest and fail_ratio, and fills the counts.
func finish(stdout io.Writer, ph phase) result {
	rec := ph.rec
	if fb := ph.delta.value("coyote_lp_dense_fallbacks_total"); fb != 0 {
		rec.checkFailed(fmt.Errorf("lp.dense_fallbacks = %g, want 0", fb))
	}
	for _, e := range rec.opErrs {
		fmt.Fprintln(stdout, "FAIL op:", e)
	}
	for _, e := range rec.errs {
		fmt.Fprintln(stdout, "FAIL:", e)
	}
	fmt.Fprintf(stdout, "digest: %s (first pass, %d ops)\n", rec.digestHex(), rec.digestOps)
	fmt.Fprintf(stdout, "fail_ratio: %g (%d failed / %d attempted)\n",
		float64(rec.failed)/float64(rec.attempted), rec.failed, rec.attempted)
	return result{
		Correct:   rec.failed == 0 && len(rec.errs) == 0 && rec.attempted > 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
	}
}

// errCheck marks an output-check failure (as opposed to a transport or
// program error); both count against fail_ratio.
var errCheck = errors.New("check failed")
