package main

import (
	"math"
	"slices"
	"time"
)

// sample is one admitted batch: all its commands resolve together, so
// the batch's latency is every one of its commands' latency. cpu is the
// process's cumulative user+sys CPU time when the batch resolved.
type sample struct {
	start, end time.Duration // since the run's epoch
	cpu        time.Duration
}

func (s sample) latency() time.Duration { return s.end - s.start }

// percentile returns the p-th percentile (0 < p <= 100) of vals by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it. vals need not be sorted and is left untouched.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// sorted samples. The epsilon absorbs the float error in p/100*n (90 %
// of 10 must be rank 9, not 10).
func rankOf(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", in ascending order.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the number is a property of a handful of
// outliers, not of the distribution.
const minBeyond = 10

// supportedPercentile returns the highest candidate percentile that
// still has at least minBeyond of n samples beyond it (0 when not even
// the median qualifies).
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rankOf(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// segmentCount is how many equal-count segments the measured phase is
// cut into. Each end-to-end timing metric is the median of the
// per-segment values, so a noisy neighbour costs one segment, not the
// run.
const segmentCount = 5

// warmupFrac of the batches, at the front of the run, are excluded.
const warmupFrac = 0.05

// dropWarmup removes the warm-up prefix.
func dropWarmup(samples []sample) []sample {
	return samples[int(math.Ceil(warmupFrac*float64(len(samples)))):]
}

// segments cuts samples into segmentCount contiguous equal-count pieces
// (the remainder is dropped from the tail). Fewer samples than segments
// yield one segment holding them all.
func segments(samples []sample) [][]sample {
	per := len(samples) / segmentCount
	if per == 0 {
		return [][]sample{samples}
	}
	out := make([][]sample, segmentCount)
	for i := range out {
		out[i] = samples[i*per : (i+1)*per]
	}
	return out
}

// endToEnd are the gated timing metrics of one run, each the median of
// its per-segment values.
type endToEnd struct {
	cmdsPerS    float64
	commitP50ms float64
	cpuMsPerCmd float64
	segRates    []float64 // per-segment cmds/s, in run order (printed, so a disturbed segment shows)
}

// summarize computes the end-to-end timing metrics over the measured
// (post-warm-up) samples. prev is the last warm-up sample (or the zero
// sample), the boundary the first segment's wall clock and CPU are
// counted from; cmdsPerBatch is B*K.
func summarize(prev sample, measured []sample, cmdsPerBatch int) endToEnd {
	var rate, p50, cpu []float64
	for _, seg := range segments(measured) {
		if len(seg) == 0 {
			continue
		}
		last := seg[len(seg)-1]
		cmds := float64(len(seg) * cmdsPerBatch)
		// The generator is closed-loop with one batch in flight: a
		// segment's wall clock runs from the previous batch's resolution
		// to its own last one, generator overhead included.
		rate = append(rate, cmds/(last.end-prev.end).Seconds())
		cpu = append(cpu, ms(last.cpu-prev.cpu)/cmds)
		p50 = append(p50, median(latenciesMs(seg)))
		prev = last
	}
	return endToEnd{
		cmdsPerS:    median(rate),
		commitP50ms: median(p50),
		cpuMsPerCmd: median(cpu),
		segRates:    rate,
	}
}

func latenciesMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
