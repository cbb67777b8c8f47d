package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. The value is printed as measured, with all
// its digits.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric's final name to its value. set refuses a second
// value under one name, so a metric can never be silently overwritten.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if _, dup := m[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is what one run of one workload reports — the object the last line
// of standard output holds.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// Units of the metrics, by the suffix of the metric's name.
const (
	unitMBps  = "MB/s"
	unitMiB   = "MiB"
	unitMs    = "ms"
	unitS     = "s"
	unitX     = "x"
	unitPct   = "pct"
	unitCount = "count"
	unitShare = "share"
)

// mbPerSec is bytes over seconds in MB/s, MB = 10^6 bytes.
func mbPerSec(bytes int64, d time.Duration) float64 {
	return float64(bytes) / 1e6 / d.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks; xs is not modified. It is NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over durations.
func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}
