package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/coyote-te/coyote/internal/obs"
)

// recorder collects one measured loop's operations, checks and digest.
type recorder struct {
	pass      int                  // current pass; the digest covers pass 0 only
	ops       []float64            // op latencies in seconds
	lat       map[string][]float64 // named request latencies (update, linkdown, ...)
	attempted int
	failed    int
	opErrs    []error // first few per-op failures, for the log
	errs      []error // run-level check failures
	digest    hash.Hash
	digestOps int
	sums      map[string]float64   // per-layer accumulators
	samples   map[string][]float64 // per-layer samples reported as medians
}

func newRecorder() *recorder {
	return &recorder{
		lat:     make(map[string][]float64),
		digest:  sha256.New(),
		sums:    make(map[string]float64),
		samples: make(map[string][]float64),
	}
}

// op records one completed operation. A non-nil err (transport error,
// non-2xx response, or failed output check) counts it as failed.
func (r *recorder) op(d time.Duration, err error) {
	r.attempted++
	r.ops = append(r.ops, d.Seconds())
	if r.pass == 0 {
		r.digestOps++
	}
	if err != nil {
		r.failed++
		if len(r.opErrs) < 5 {
			r.opErrs = append(r.opErrs, err)
		}
	}
}

func (r *recorder) latency(kind string, d time.Duration) {
	r.lat[kind] = append(r.lat[kind], d.Seconds())
}

// checkFailed records a run-level check failure.
func (r *recorder) checkFailed(err error) { r.errs = append(r.errs, err) }

// digestOf feeds output values into the digest during the first pass, so
// the digest depends on the seed and code, never on how many passes fit
// into the run. Floats enter as their exact bits.
func (r *recorder) digestOf(vals ...any) {
	if r.pass != 0 {
		return
	}
	var buf [8]byte
	for _, v := range vals {
		switch x := v.(type) {
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			r.digest.Write(buf[:])
		case int:
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
			r.digest.Write(buf[:])
		case bool:
			if x {
				r.digest.Write([]byte{1})
			} else {
				r.digest.Write([]byte{0})
			}
		case string:
			r.digest.Write([]byte(x))
			r.digest.Write([]byte{0})
		case []byte:
			r.digest.Write(x)
		default:
			panic(fmt.Sprintf("digestOf: unsupported %T", v))
		}
	}
}

func (r *recorder) digestHex() string { return fmt.Sprintf("%x", r.digest.Sum(nil))[:16] }

func (r *recorder) add(name string, v float64) { r.sums[name] += v }

func (r *recorder) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// printLatencies prints each latency distribution as a median plus the
// highest percentile that has at least ten samples beyond it, with the
// sample count.
func (r *recorder) printLatencies(w io.Writer) {
	printDist(w, "op", r.ops)
	kinds := make([]string, 0, len(r.lat))
	for k := range r.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		printDist(w, k, r.lat[k])
	}
}

func printDist(w io.Writer, name string, xs []float64) {
	line := fmt.Sprintf("%s_p50_s: %.6f", name, median(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		line += fmt.Sprintf("  %s_p%s_s: %.6f", name, pctName(p), percentile(xs, p))
	} else {
		line += "  (no tail percentile: fewer than 10 samples beyond p50)"
	}
	fmt.Fprintf(w, "%s  n=%d\n", line, len(xs))
}

func pctName(p float64) string {
	return strings.ReplaceAll(strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", p), "0"), "."), ".", "_")
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile: the sample at rank
// ⌈p/100·n⌉ of the sorted values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func rank(n int, p float64) int {
	// The epsilon keeps float error in p/100·n (99.9% of 10000 is not
	// exactly 9990) from pushing the rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile with at least ten
// samples beyond it (n − rank ≥ 10). It reports false when even p75 has
// fewer, in which case no tail is printed.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// interval is a half-open time range [start, end).
type interval struct{ start, end time.Duration }

// selfTime is the parent's duration minus the part of it covered by the
// union of its children (clipped to the parent), so overlapping children
// — parallel work — and nested descendants are not subtracted twice.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			cs = append(cs, interval{s, e})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		if i == 0 || c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
		} else if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// counters is a flattened registry snapshot: counters and gauges by name,
// histograms as name_sum and name_count, each with a {labels} suffix for
// labeled children.
type counters map[string]float64

func snapshot(reg *obs.Registry) counters {
	out := make(counters)
	for _, f := range reg.Snapshot() {
		for _, m := range f.Metrics {
			var labels string
			if len(m.LabelValues) > 0 {
				labels = "{" + strings.Join(m.LabelValues, ",") + "}"
			}
			if f.Type == obs.HistogramType {
				out[f.Name+"_sum"+labels] = m.Sum
				out[f.Name+"_count"+labels] = float64(m.Count)
			} else {
				out[f.Name+labels] = m.Value
			}
		}
	}
	return out
}

// phaseDelta runs fn and returns how much every registry value moved
// while it ran — the per-layer counts of exactly that phase, excluding
// whatever ran before (set-up, warm-up) or after.
func phaseDelta(reg *obs.Registry, fn func()) counters {
	before := snapshot(reg)
	fn()
	after := snapshot(reg)
	d := make(counters, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// value sums every labeled child of a name.
func (c counters) value(name string) float64 {
	var v float64
	for k, x := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			v += x
		}
	}
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
