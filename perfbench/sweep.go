package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"github.com/coyote-te/coyote/internal/obs"
	"github.com/coyote-te/coyote/internal/sweep"
)

// goldenDir is the checked-in golden corpus, relative to the checkout root.
const goldenDir = "testdata/golden"

// sweepGolden runs the golden campaign fresh through sweep.Run into an
// empty cache, unit-parallel over one worker per CPU; each unit is an op.
// Its inputs are pinned by the golden corpus, so it ignores the seed.
type sweepGolden struct {
	campaign sweep.Campaign
	golden   []sweep.Result
	tmp      string // parent of the per-pass cache directories
}

func newSweepGolden(int64) (workload, error) { return &sweepGolden{}, nil }

func (s *sweepGolden) setup(*obs.Tracer) error {
	var err error
	if s.campaign, err = sweep.Golden(); err != nil {
		return err
	}
	if s.golden, err = sweep.ReadGolden(goldenDir); err != nil {
		return err
	}
	// The code fingerprint hashes the executable once per process; pay
	// for it here rather than in the first unit.
	sweep.Fingerprint()
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	s.tmp, err = os.MkdirTemp(buildDir, "sweep-cache-")
	return err
}

func (s *sweepGolden) close() {
	if s.tmp != "" {
		os.RemoveAll(s.tmp)
		s.tmp = ""
	}
}

// pass runs the whole campaign once into a fresh cache directory and
// checks every unit's table against the golden corpus, exactly as
// `coyote-sweep diff -golden` compares (tolerance 0).
func (s *sweepGolden) pass(ctx context.Context, p int, rec *recorder) {
	cache, err := sweep.Open(filepath.Join(s.tmp, fmt.Sprint(p)))
	if err != nil {
		rec.op(0, err)
		return
	}
	rep, err := sweep.Run(s.campaign, sweep.Options{Cache: cache, Ctx: ctx})
	if err != nil {
		for range s.campaign.Units {
			rec.op(0, err)
		}
		return
	}
	bad := make(map[string]error)
	for _, d := range sweep.Diff(s.golden, rep.Results, 0) {
		if bad[d.Unit] == nil {
			bad[d.Unit] = fmt.Errorf("%w: golden drift %s", errCheck, d)
		}
	}
	for _, st := range rep.Statuses {
		err := bad[st.Unit]
		if st.Cached {
			rec.add("sweep.cache_hits", 1)
			if err == nil {
				err = fmt.Errorf("%w: unit %s was a cache hit in a fresh cache", errCheck, st.Unit)
			}
		}
		rec.op(st.Elapsed, err)
	}
	for _, r := range rep.Results {
		line, err := r.MarshalLine()
		if err != nil {
			rec.checkFailed(err)
			continue
		}
		rec.digestOf(line)
	}
}

// layers reports the unit latency (each op is one unit's
// UnitStatus.Elapsed) and the cache hits, which must stay 0.
func (s *sweepGolden) layers(lm layerMetrics, _ []obs.SpanRecord, ph phase) {
	lm["sweep.unit_s"] = median(ph.rec.ops)
	lm["sweep.cache_hits"] = ph.rec.sums["sweep.cache_hits"]
}
