package server

// Option mapping: the wire representation of a Sort call's functional
// options. Query parameters of POST /v1/sort (and, identically, the
// "options" object of a POST /v1/jobs submission) map one-to-one onto the
// colsort.With* constructors. The mapping is STRICT: unknown keys,
// repeated keys, malformed values and conflicting combinations are
// rejected with an error naming the offender — a typo must never silently
// select a default. DESIGN.md §11 holds the full table.

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"colsort"
)

// sortParams is the closed set of wire option keys.
var sortParams = map[string]struct{}{
	"alg":               {},
	"group":             {},
	"deadline-ms":       {},
	"key-offset":        {},
	"key-width":         {},
	"order":             {},
	"padding":           {},
	"max-memory-mib":    {},
	"merge-fanin":       {},
	"async":             {},
	"nowait":            {},
	"retries":           {},
	"retry-base-us":     {},
	"redo-budget":       {},
	"scrub":             {},
	"chaos":             {},
	"chaos-seed":        {},
	"chaos-p-transient": {},
	"chaos-p-bitflip":   {},
	"chaos-p-torn":      {},
}

// knownParamList renders the closed key set for error messages, sorted so
// the message is deterministic.
func knownParamList() string {
	keys := make([]string, 0, len(sortParams))
	for k := range sortParams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// wireAlgorithms maps wire algorithm names onto the library's. The
// baseline I/O programs are deliberately absent: they produce unsorted
// output by design and have no business behind a sorting endpoint.
var wireAlgorithms = map[string]colsort.Algorithm{
	"threaded":       colsort.Threaded,
	"threaded-4pass": colsort.Threaded4,
	"subblock":       colsort.Subblock,
	"m-columnsort":   colsort.MColumn,
	"combined":       colsort.Combined,
	"hybrid":         colsort.Hybrid,
}

// parseSortOptions validates the wire options strictly and compiles them
// into colsort functional options. extra names caller-handled keys (e.g.
// "records" on the streaming endpoint) that are legal but contribute no
// option.
func parseSortOptions(q url.Values, extra ...string) ([]colsort.Option, error) {
	callerKeys := make(map[string]bool, len(extra))
	for _, k := range extra {
		callerKeys[k] = true
	}
	get := make(map[string]string, len(q))
	for k, vs := range q {
		if callerKeys[k] {
			continue
		}
		if _, ok := sortParams[k]; !ok {
			return nil, fmt.Errorf("unknown option %q (known: %s)", k, knownParamList())
		}
		if len(vs) != 1 {
			return nil, fmt.Errorf("option %q given %d times; each option may appear once", k, len(vs))
		}
		if vs[0] == "" {
			return nil, fmt.Errorf("option %q has an empty value", k)
		}
		get[k] = vs[0]
	}

	has := func(k string) bool { _, ok := get[k]; return ok }
	intOf := func(k string) (int64, error) {
		v, err := strconv.ParseInt(get[k], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("option %q: %q is not an integer", k, get[k])
		}
		return v, nil
	}
	boolOf := func(k string) (bool, error) {
		v, err := strconv.ParseBool(get[k])
		if err != nil {
			return false, fmt.Errorf("option %q: %q is not a boolean", k, get[k])
		}
		return v, nil
	}
	floatOf := func(k string) (float64, error) {
		v, err := strconv.ParseFloat(get[k], 64)
		if err != nil {
			return 0, fmt.Errorf("option %q: %q is not a number", k, get[k])
		}
		return v, nil
	}

	var opts []colsort.Option

	// Algorithm selection. hybrid requires a group size; a group size
	// requires hybrid.
	alg, haveAlg := colsort.Threaded, false
	if has("alg") {
		a, ok := wireAlgorithms[get["alg"]]
		if !ok {
			names := make([]string, 0, len(wireAlgorithms))
			for n := range wireAlgorithms {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("option %q: unknown algorithm %q (known: %s)", "alg", get["alg"], strings.Join(names, ", "))
		}
		alg, haveAlg = a, true
	}
	switch {
	case alg == colsort.Hybrid && !has("group"):
		return nil, fmt.Errorf("alg=hybrid requires a group size: pass group=G (2 ≤ G ≤ P/2)")
	case alg != colsort.Hybrid && has("group"):
		return nil, fmt.Errorf("option %q only applies to alg=hybrid", "group")
	case alg == colsort.Hybrid:
		g, err := intOf("group")
		if err != nil {
			return nil, err
		}
		opts = append(opts, colsort.WithHybridGroup(int(g)))
	case haveAlg:
		opts = append(opts, colsort.WithAlgorithm(alg))
	}

	// Key schema.
	var ks colsort.KeySpec
	haveKS := false
	if has("key-offset") {
		v, err := intOf("key-offset")
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("option %q: must be ≥ 0", "key-offset")
		}
		ks.Offset, haveKS = int(v), true
	}
	if has("key-width") {
		v, err := intOf("key-width")
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("option %q: must be ≥ 1", "key-width")
		}
		ks.Width, haveKS = int(v), true
	}
	if has("order") {
		switch get["order"] {
		case "asc":
		case "desc":
			ks.Order = colsort.Descending
		default:
			return nil, fmt.Errorf("option %q: want \"asc\" or \"desc\", got %q", "order", get["order"])
		}
		haveKS = true
	}
	if haveKS {
		opts = append(opts, colsort.WithKeySpec(ks))
	}

	// Padding policy and the hierarchical knobs it conflicts with.
	if has("padding") {
		switch get["padding"] {
		case "auto":
			opts = append(opts, colsort.WithPadding(colsort.PadAuto))
		case "never":
			opts = append(opts, colsort.WithPadding(colsort.PadNever))
		default:
			return nil, fmt.Errorf("option %q: want \"auto\" or \"never\", got %q", "padding", get["padding"])
		}
	}
	if has("max-memory-mib") {
		if alg == colsort.Hybrid {
			return nil, fmt.Errorf("max-memory-mib conflicts with alg=hybrid: the hierarchical path supports only non-hybrid algorithms")
		}
		if get["padding"] == "never" {
			return nil, fmt.Errorf("max-memory-mib conflicts with padding=never: the hierarchical path requires automatic padding")
		}
		v, err := intOf("max-memory-mib")
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("option %q: must be ≥ 1", "max-memory-mib")
		}
		opts = append(opts, colsort.WithMaxMemory(v<<20))
	}
	if has("merge-fanin") {
		v, err := intOf("merge-fanin")
		if err != nil {
			return nil, err
		}
		if v < 2 {
			return nil, fmt.Errorf("option %q: must be ≥ 2", "merge-fanin")
		}
		opts = append(opts, colsort.WithMergeFanIn(int(v)))
	}

	// Machine overrides (tri-state: absent inherits the engine's Config).
	if has("async") {
		v, err := boolOf("async")
		if err != nil {
			return nil, err
		}
		opts = append(opts, colsort.WithAsync(v))
	}
	if has("nowait") {
		v, err := boolOf("nowait")
		if err != nil {
			return nil, err
		}
		if v {
			opts = append(opts, colsort.WithNoWait())
		}
	}
	if has("deadline-ms") {
		v, err := intOf("deadline-ms")
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("option %q: must be ≥ 1", "deadline-ms")
		}
		opts = append(opts, colsort.WithDeadline(time.Duration(v)*time.Millisecond))
	}

	// Retry policy: any retry key present builds one WithRetry.
	if has("retries") || has("retry-base-us") || has("redo-budget") || has("scrub") {
		var p colsort.RetryPolicy
		if has("retries") {
			v, err := intOf("retries")
			if err != nil {
				return nil, err
			}
			if v < 1 {
				return nil, fmt.Errorf("option %q: must be ≥ 1 (1 disables retries)", "retries")
			}
			p.MaxAttempts = int(v)
		}
		if has("retry-base-us") {
			v, err := intOf("retry-base-us")
			if err != nil {
				return nil, err
			}
			if v < 1 {
				return nil, fmt.Errorf("option %q: must be ≥ 1", "retry-base-us")
			}
			p.BaseDelay = time.Duration(v) * time.Microsecond
		}
		if has("redo-budget") {
			v, err := intOf("redo-budget")
			if err != nil {
				return nil, err
			}
			p.RedoBudget = int(v) // negative disables batch redo, by contract
		}
		if has("scrub") {
			v, err := boolOf("scrub")
			if err != nil {
				return nil, err
			}
			p.Scrub = v
		}
		opts = append(opts, colsort.WithRetry(p))
	}

	// Chaos (tri-state): chaos=off disables engine-configured chaos for
	// this job; any chaos-* parameter enables job-scoped injection.
	haveChaosParam := has("chaos-seed") || has("chaos-p-transient") || has("chaos-p-bitflip") || has("chaos-p-torn")
	if has("chaos") {
		if get["chaos"] != "off" {
			return nil, fmt.Errorf("option %q: the only value is \"off\" (chaos-seed/chaos-p-* enable injection)", "chaos")
		}
		if haveChaosParam {
			return nil, fmt.Errorf("chaos=off conflicts with the chaos-* parameters")
		}
		opts = append(opts, colsort.WithChaos(nil))
	} else if haveChaosParam {
		cc := &colsort.ChaosConfig{Seed: 1}
		if has("chaos-seed") {
			v, err := intOf("chaos-seed")
			if err != nil {
				return nil, err
			}
			cc.Seed = uint64(v)
		}
		// A slice, not a map: with two bad probabilities the error must name
		// the same one every time.
		for _, p := range []struct {
			key string
			dst *float64
		}{
			{"chaos-p-transient", &cc.PTransient},
			{"chaos-p-bitflip", &cc.PBitFlip},
			{"chaos-p-torn", &cc.PTorn},
		} {
			if !has(p.key) {
				continue
			}
			v, err := floatOf(p.key)
			if err != nil {
				return nil, err
			}
			if v < 0 || v > 1 {
				return nil, fmt.Errorf("option %q: probability must be in [0, 1]", p.key)
			}
			*p.dst = v
		}
		opts = append(opts, colsort.WithChaos(cc))
	}

	return opts, nil
}

// valuesFromMap adapts a job submission's options object to the query
// parameter mapping, so both entry points share one validator.
func valuesFromMap(m map[string]string) url.Values {
	q := make(url.Values, len(m))
	for k, v := range m {
		q.Set(k, v)
	}
	return q
}
