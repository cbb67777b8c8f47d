package figure2

import (
	"fmt"
	"sort"
	"strings"

	"colsort/internal/core"
	"colsort/internal/sim"
)

// GiB is 2^30 bytes.
const GiB = int64(1) << 30

// Point is one prospective data point of Figure 2.
type Point struct {
	Alg         core.Algorithm
	BufferBytes int   // per-processor column buffer (2^24 or 2^25 in the paper)
	TotalBytes  int64 // total data sorted
	P, D        int
	Z           int // record size

	Eligible bool
	Reason   string // why the point cannot run, when ineligible

	Plan core.Plan
	Est  sim.RunEstimate
	// SecsPerGBProc is the paper's y-axis: seconds per (GiB/processor).
	SecsPerGBProc float64
}

// GBPerProc returns the x-normalization of Figure 2.
func (pt Point) GBPerProc() float64 {
	return float64(pt.TotalBytes) / float64(GiB) / float64(pt.P)
}

// Label names the plotted series this point belongs to.
func (pt Point) Label() string {
	return fmt.Sprintf("%v, buffer=2^%d", pt.Alg, log2i(pt.BufferBytes))
}

func log2i(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// PaperProcs mirrors Section 5's configurations: 1–2 GB per processor with
// 4, 8 or 16 processors depending on total volume.
func PaperProcs(totalBytes int64) int {
	switch {
	case totalBytes <= 4*GiB:
		return 4
	case totalBytes <= 8*GiB:
		return 8
	default:
		return 16
	}
}

// Grid builds the full Figure-2 grid: the three algorithms at buffer sizes
// 2^24 and 2^25 bytes plus the two baselines, across 4–32 GiB of 64-byte
// records. Ineligible points carry the planner's reason, reproducing the
// eligibility pattern of Section 5 (experiment E8): threaded columnsort
// only at 4 GiB, subblock only at power-of-4 column counts, M-columnsort
// everywhere.
func Grid() []Point {
	var pts []Point
	algs := []core.Algorithm{core.Threaded, core.Subblock, core.MColumn,
		core.BaselineIO3, core.BaselineIO4}
	for _, alg := range algs {
		for _, buf := range []int{1 << 24, 1 << 25} {
			if alg == core.BaselineIO3 || alg == core.BaselineIO4 {
				if buf == 1<<24 {
					continue // baselines are plotted once
				}
			}
			for _, gb := range []int64{4, 8, 16, 32} {
				pts = append(pts, MakePoint(alg, buf, gb*GiB, 64))
			}
		}
	}
	return pts
}

// MakePoint plans one configuration, recording eligibility.
func MakePoint(alg core.Algorithm, bufferBytes int, totalBytes int64, z int) Point {
	p := PaperProcs(totalBytes)
	pt := Point{Alg: alg, BufferBytes: bufferBytes, TotalBytes: totalBytes, P: p, D: p, Z: z}
	n := totalBytes / int64(z)
	mem := bufferBytes / z
	pl, err := core.NewPlan(alg, n, p, p, mem, z)
	if err != nil {
		pt.Reason = err.Error()
		return pt
	}
	pt.Eligible = true
	pt.Plan = pl
	return pt
}

// Evaluate fills in the time estimate of an eligible point using the
// validated count predictor and the given cost model.
func Evaluate(pt *Point, cm sim.CostModel) error {
	if !pt.Eligible {
		return fmt.Errorf("figure2: point %s is not eligible: %s", pt.Label(), pt.Reason)
	}
	counters, err := PredictPassCounters(pt.Plan)
	if err != nil {
		return err
	}
	pt.Est = cm.EstimateRun(counters, pt.D)
	pt.SecsPerGBProc = pt.Est.Total / pt.GBPerProc()
	return nil
}

// Render formats the grid as the textual analogue of Figure 2: one series
// per (algorithm, buffer), y = secs per (GiB/processor), x = total GiB.
func Render(pts []Point) string {
	bySeries := make(map[string][]Point)
	var labels []string
	for _, pt := range pts {
		if _, ok := bySeries[pt.Label()]; !ok {
			labels = append(labels, pt.Label())
		}
		bySeries[pt.Label()] = append(bySeries[pt.Label()], pt)
	}
	sort.Strings(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "%-38s %s\n", "series", "secs per (GiB/processor) at total GiB")
	fmt.Fprintf(&b, "%-38s %10s %10s %10s %10s\n", "", "4", "8", "16", "32")
	for _, label := range labels {
		fmt.Fprintf(&b, "%-38s", label)
		series := bySeries[label]
		sort.Slice(series, func(i, j int) bool { return series[i].TotalBytes < series[j].TotalBytes })
		for _, pt := range series {
			if pt.Eligible {
				fmt.Fprintf(&b, " %10.1f", pt.SecsPerGBProc)
			} else {
				fmt.Fprintf(&b, " %10s", "—")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
