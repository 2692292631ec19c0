package core

import (
	"fmt"
	"testing"

	"repro/internal/freqstats"
)

// buildRangeStreakerSample integrates two value populations: a low range
// [0,50) reported evenly by six sources, and a high range [100,150) whose
// observations come almost entirely from one source ("hog"). Globally the
// hog is diluted below any streaker threshold; within its value range it
// dominates.
func buildRangeStreakerSample(t *testing.T) *freqstats.Sample {
	t.Helper()
	s := freqstats.NewSample()
	add := func(id string, v float64, src string) {
		t.Helper()
		if err := s.Add(freqstats.Observation{EntityID: id, Value: v, Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	// Low range: 60 entities, each seen by two balanced sources.
	for e := 0; e < 60; e++ {
		id := fmt.Sprintf("low%02d", e)
		v := float64(e % 50)
		add(id, v, fmt.Sprintf("s%d", e%6))
		add(id, v, fmt.Sprintf("s%d", (e+1)%6))
	}
	// High range: 20 entities, each seen twice by the hog and once by a
	// balanced source — the hog contributes 40 of the 60 high observations
	// but only 40 of 180 (22%) overall.
	for e := 0; e < 20; e++ {
		id := fmt.Sprintf("high%02d", e)
		v := 100 + float64(e%50)
		add(id, v, "hog")
		add(id, v, "hog") // idempotence is an engine concern; S is a multiset
		add(id, v, fmt.Sprintf("s%d", e%6))
	}
	return s
}

// TestBucketSplitSeesRangeConfinedStreaker is the regression fixture for
// the scaled-approximation bug: a source confined to one value range must
// show up, at full weight, in exactly that bucket's source profile — so
// the per-bucket Monte-Carlo estimator and streaker diagnosis key on the
// true per-range sampling scenario. The old Filter scaled every source by
// the kept fraction, fabricating a hog presence in the low bucket and
// diluting it in the high one; both assertions below fail under that
// approximation and pass with exact attribution.
func TestBucketSplitSeesRangeConfinedStreaker(t *testing.T) {
	s := buildRangeStreakerSample(t)

	const hogObs = 40 // 2 observations x 20 high entities
	global := s.SourceContributions()
	if global["hog"] != hogObs {
		t.Fatalf("global hog contribution = %d, want %d", global["hog"], hogObs)
	}
	if share := float64(global["hog"]) / float64(s.N()); share >= 0.33 {
		t.Fatalf("fixture broken: hog already dominates globally (share %.2f)", share)
	}

	buckets := Bucket{Strategy: EquiWidth{K: 2}}.Buckets(s)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	low, high := buckets[0], buckets[1]

	// Exact attribution: the hog is all of its range and none of the other.
	lowContrib := low.Sample().SourceContributions()
	if _, present := lowContrib["hog"]; present {
		t.Errorf("hog fabricated in low bucket: %v", lowContrib)
	}
	highContrib := high.Sample().SourceContributions()
	if highContrib["hog"] != hogObs {
		t.Errorf("high-bucket hog contribution = %d, want %d (exact)", highContrib["hog"], hogObs)
	}
	if share := float64(highContrib["hog"]) / float64(high.N); share < 0.33 {
		t.Errorf("high-bucket hog share = %.2f; the per-range streaker must cross the 0.33 threshold", share)
	}

	// The deleted approximation would have scaled the hog by the kept
	// fraction in both buckets: nonzero in the low bucket (fabricated) and
	// under half its true weight in the high one. Keep the arithmetic here
	// so the bug this fixture guards against stays legible.
	lowFrac := float64(low.N) / float64(s.N())
	if scaled := int(float64(hogObs)*lowFrac + 0.5); scaled == 0 {
		t.Fatalf("fixture broken: scaled approximation would also report 0 (frac %.2f)", lowFrac)
	}
	highFrac := float64(high.N) / float64(s.N())
	if scaled := int(float64(hogObs)*highFrac + 0.5); scaled >= hogObs {
		t.Fatalf("fixture broken: scaled approximation would not understate the hog (scaled %d)", scaled)
	}

	// The per-bucket Monte-Carlo estimator replays the true per-range
	// sampling scenario: its source model is the exact [hog x40, sN ...]
	// profile, and its count estimate stays within the Chao92 bracket.
	mc := MonteCarlo{Runs: 1, Seed: 1, Workers: 1}
	nHat := mc.EstimateN(high.Sample())
	c := float64(high.C)
	if nHat < c {
		t.Errorf("per-bucket MC estimate %.1f below observed count %.0f", nHat, c)
	}
	if err := high.Sample().CheckInvariants(); err != nil {
		t.Error(err)
	}
}
