package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one slow sample, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// samples. It refuses when fewer than minBeyond samples lie beyond it,
// so a name like p99 is never printed over too few samples.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	k := rank(n, q)
	if n-k < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-k, n)
	}
	s := sortedCopy(samples)
	return s[k-1], nil
}

// rank is the 1-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	return k
}

// maxWindows bounds windowedPercentile's split of a run.
const maxWindows = 15

// windowedPercentile splits the samples, in the order they were taken,
// into as many equal windows (up to maxWindows) as each can support the
// q-quantile in, and returns the median of the windows' quantiles and
// the window count. A burst of load from outside the benchmark that
// spoils one window then moves the figure little.
func windowedPercentile(samples []float64, q float64) (float64, int, error) {
	k := maxWindows
	for ; k > 1; k-- {
		if w := len(samples) / k; w-rank(w, q) >= minBeyond {
			break
		}
	}
	w := len(samples) / k
	vals := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		hi := (i + 1) * w
		if i == k-1 {
			hi = len(samples)
		}
		v, err := percentile(samples[i*w:hi], q)
		if err != nil {
			return 0, 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), k, nil
}

// highestPercentile names the highest of the usual percentiles that n
// samples support under the minBeyond rule, or "" when none does.
func highestPercentile(n int) string {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if n-rank(n, q) >= minBeyond {
			return fmt.Sprintf("p%g", q*100)
		}
	}
	return ""
}

// median is the middle of the samples (the mean of the middle two for
// an even count); 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the name rule the result line promises its readers.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
	}
	return nil
}
