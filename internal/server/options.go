package server

// Option mapping: the wire spelling of a Sort call's functional options.
// Query parameters of POST /v1/sort (and, identically, the "options" object
// of a POST /v1/jobs submission) spell the colsort.With* options through ONE
// table, wireKeys: name, value type, setter. This file checks spelling only
// — a closed key set, each key once, non-empty and well-typed (a count of
// MiB, ms or µs is an int64 once scaled), and the two
// places the wire spells one Go option with several keys (alg=hybrid ⇔ group,
// chaos=off vs chaos-*) — so a typo never silently selects a default. What a
// value may BE is the library's to say (colsort's resolve, plan.go): both
// endpoints ask it before a body byte or a 202 leaves, and answer 400 with its
// sentence. A zero means what it means in Go: the option's default.
// DESIGN.md §11 holds the table.

import (
	"fmt"
	"maps"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"colsort"
)

// wireKey is one wire option key: its name, what a well-typed value is (for
// the error message), and the setter that stores a value on the accumulator,
// reporting false when it is not of that type.
type wireKey struct {
	name string
	typ  string
	set  func(a *accumulator, v string) bool
}

// accumulator collects what the keys spell: options a key emits on its own,
// and the fields of the options several keys spell together.
type accumulator struct {
	opts    []colsort.Option
	alg     colsort.Algorithm
	group   int
	ks      colsort.KeySpec
	retry   colsort.RetryPolicy
	chaos   colsort.ChaosConfig
	chaosOn bool // some chaos-* key was given
}

func (a *accumulator) add(o colsort.Option) { a.opts = append(a.opts, o) }

// key builds a wireKey from a value parser and a setter.
func key[T any](name, typ string, parse func(string) (T, error), put func(*accumulator, T)) wireKey {
	return wireKey{name, typ, func(a *accumulator, s string) bool {
		v, err := parse(s)
		if err == nil {
			put(a, v)
		}
		return err == nil
	}}
}

func intKey(name string, put func(*accumulator, int64)) wireKey {
	return key(name, "an integer", func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }, put)
}

// scaledKey is an integer key counted in units of unit (a MiB, a millisecond,
// a microsecond), put as the bytes or nanoseconds the option takes. A count
// whose product would overflow int64 is ill-typed: wrapped, it would spell
// some other value, and 2^44 MiB would be no cap at all.
func scaledKey(name string, unit int64, put func(*accumulator, int64)) wireKey {
	limit := math.MaxInt64 / unit
	return key(name, fmt.Sprintf("an integer in [-%d, %d]", limit, limit), func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && (v > limit || v < -limit) {
			err = strconv.ErrRange
		}
		return v * unit, err
	}, put)
}

func boolKey(name string, put func(*accumulator, bool)) wireKey {
	return key(name, "a boolean", strconv.ParseBool, put)
}

// probKey is a chaos-p-* key: any number is well-typed here; the library says
// which numbers are probabilities.
func probKey(name string, field func(*colsort.ChaosConfig) *float64) wireKey {
	return key(name, "a number", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
		func(a *accumulator, v float64) { *field(&a.chaos), a.chaosOn = v, true })
}

// enumKey is a key whose values are a closed set of names.
func enumKey[T any](name string, values map[string]T, put func(*accumulator, T)) wireKey {
	return key(name, strings.Join(slices.Sorted(maps.Keys(values)), " | "), func(s string) (T, error) {
		v, ok := values[s]
		if !ok {
			return v, strconv.ErrSyntax
		}
		return v, nil
	}, put)
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

// wireKeys is the closed set of wire option keys, in the order a request's
// values are read (so of two ill-typed values the same one is named every
// time).
var wireKeys = []wireKey{
	enumKey("alg", wireAlgorithms, func(a *accumulator, v colsort.Algorithm) { a.alg = v }),
	intKey("group", func(a *accumulator, v int64) { a.group = int(v) }),
	scaledKey("deadline-ms", int64(time.Millisecond), func(a *accumulator, v int64) { a.add(colsort.WithDeadline(time.Duration(v))) }),
	intKey("key-offset", func(a *accumulator, v int64) { a.ks.Offset = int(v) }),
	intKey("key-width", func(a *accumulator, v int64) { a.ks.Width = int(v) }),
	enumKey("order", map[string]colsort.Order{"asc": colsort.Ascending, "desc": colsort.Descending},
		func(a *accumulator, v colsort.Order) { a.ks.Order = v }),
	enumKey("padding", map[string]colsort.PaddingPolicy{"auto": colsort.PadAuto, "never": colsort.PadNever},
		func(a *accumulator, v colsort.PaddingPolicy) { a.add(colsort.WithPadding(v)) }),
	scaledKey("max-memory-mib", 1<<20, func(a *accumulator, v int64) { a.add(colsort.WithMaxMemory(v)) }),
	intKey("merge-fanin", func(a *accumulator, v int64) { a.add(colsort.WithMergeFanIn(int(v))) }),
	boolKey("nowait", func(a *accumulator, v bool) {
		if v {
			a.add(colsort.WithNoWait())
		}
	}),
	intKey("retries", func(a *accumulator, v int64) { a.retry.MaxAttempts = int(v) }),
	scaledKey("retry-base-us", int64(time.Microsecond), func(a *accumulator, v int64) { a.retry.BaseDelay = time.Duration(v) }),
	intKey("redo-budget", func(a *accumulator, v int64) { a.retry.RedoBudget = int(v) }),
	boolKey("scrub", func(a *accumulator, v bool) { a.retry.Scrub = v }),
	// chaos=off shields the job from engine-configured chaos; any chaos-* key
	// enables job-scoped injection.
	enumKey("chaos", map[string]bool{"off": true}, func(*accumulator, bool) {}),
	intKey("chaos-seed", func(a *accumulator, v int64) { a.chaos.Seed, a.chaosOn = uint64(v), true }),
	probKey("chaos-p-transient", func(c *colsort.ChaosConfig) *float64 { return &c.PTransient }),
	probKey("chaos-p-bitflip", func(c *colsort.ChaosConfig) *float64 { return &c.PBitFlip }),
	probKey("chaos-p-torn", func(c *colsort.ChaosConfig) *float64 { return &c.PTorn }),
}

// knownParamList renders the closed key set for error messages.
func knownParamList() string {
	names := make([]string, len(wireKeys))
	for i, k := range wireKeys {
		names[i] = k.name
	}
	return strings.Join(names, ", ")
}

// parseSortOptions reads the wire options strictly and spells them as
// colsort functional options. extra names caller-handled keys (e.g.
// "records" on the streaming endpoint) that are legal but contribute no
// option.
func parseSortOptions(q url.Values, extra ...string) ([]colsort.Option, error) {
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(extra, k) && !slices.ContainsFunc(wireKeys, func(w wireKey) bool { return w.name == k }) {
			return nil, fmt.Errorf("unknown option %q (known: %s)", k, knownParamList())
		}
	}
	a := accumulator{alg: colsort.Threaded, chaos: colsort.ChaosConfig{Seed: 1}}
	for _, k := range wireKeys {
		switch vs, given := q[k.name]; {
		case !given:
		case len(vs) != 1:
			return nil, fmt.Errorf("option %q given %d times; each option may appear once", k.name, len(vs))
		case vs[0] == "":
			return nil, fmt.Errorf("option %q has an empty value", k.name)
		case !k.set(&a, vs[0]):
			return nil, fmt.Errorf("option %q: want %s, got %q", k.name, k.typ, vs[0])
		}
	}

	// The two Go options the wire spells with more than one key.
	hybrid := a.alg == colsort.Hybrid
	switch {
	case hybrid && !q.Has("group"):
		return nil, fmt.Errorf("alg=hybrid requires a group size: pass group=G")
	case !hybrid && q.Has("group"):
		return nil, fmt.Errorf("option %q only applies to alg=hybrid", "group")
	case q.Has("chaos") && a.chaosOn:
		return nil, fmt.Errorf("chaos=off conflicts with the chaos-* parameters")
	case hybrid:
		a.add(colsort.WithHybridGroup(a.group))
	case q.Has("alg"):
		a.add(colsort.WithAlgorithm(a.alg))
	}
	if a.ks != (colsort.KeySpec{}) {
		a.add(colsort.WithKeySpec(a.ks))
	}
	if a.retry != (colsort.RetryPolicy{}) {
		a.add(colsort.WithRetry(a.retry))
	}
	if q.Has("chaos") {
		a.add(colsort.WithChaos(nil))
	} else if a.chaosOn {
		a.add(colsort.WithChaos(&a.chaos))
	}
	return a.opts, nil
}

// valuesFromMap adapts a job submission's options object to the query
// parameter mapping, so both entry points share one reader.
func valuesFromMap(m map[string]string) url.Values {
	q := make(url.Values, len(m))
	for k, v := range m {
		q.Set(k, v)
	}
	return q
}
