// Package optspell is the one spelling of a Sort call's functional options
// outside Go: the query parameters of POST /v1/sort, the "options" object of
// a POST /v1/jobs submission and the sort flags of cmd/colsort are all keys
// of ONE table, Keys — name, value type, setter — read by Parse. A key is the
// same word on the wire and on the command line (key=v, -key v), so a refused
// spelling reads the same from every front end.
//
// Parse checks spelling only — a closed key set, each key once, non-empty and
// well-typed (a count of MiB, ms or µs is an int64 once scaled), and the one
// place a Go option is spelled with two keys (alg=hybrid ⇔ group) — so a
// typo never silently selects a default. What a value may BE is the
// library's to say (colsort's resolve, plan.go), in its own sentence. A zero
// means what it means in Go: the option's default. DESIGN.md §11 holds the
// table.
package optspell

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

// Key is one option key: its name (the wire key, and the CLI flag), what a
// well-typed value is (for error messages and the CLI's -h), and the setter
// that stores a value on the accumulator, reporting false when it is not of
// that type.
type Key struct {
	Name, Type string
	set        func(a *accumulator, v string) bool
}

const boolType = "a boolean"

// IsBool reports whether the key takes a boolean: the CLI spells it as a
// flag that may stand alone (-scrub for scrub=true).
func (k Key) IsBool() bool { return k.Type == boolType }

// accumulator collects what the keys spell: options a key emits on its own,
// and the fields of the options several keys spell together.
type accumulator struct {
	opts  []colsort.Option
	alg   colsort.Algorithm
	group int
	ks    colsort.KeySpec
	retry colsort.RetryPolicy
}

func (a *accumulator) add(o colsort.Option) { a.opts = append(a.opts, o) }

// key builds a Key from a value parser and a setter.
func key[T any](name, typ string, parse func(string) (T, error), put func(*accumulator, T)) Key {
	return Key{name, typ, func(a *accumulator, s string) bool {
		v, err := parse(s)
		if err == nil {
			put(a, v)
		}
		return err == nil
	}}
}

func intKey(name string, put func(*accumulator, int64)) Key {
	return key(name, "an integer", func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }, put)
}

// scaledKey is an integer key counted in units of unit (a MiB, a
// millisecond, a microsecond), put as the bytes or nanoseconds the option
// takes. A count whose product would overflow int64 is ill-typed: wrapped, it
// would spell some other value, and 2^44 MiB would be no cap at all.
func scaledKey(name string, unit int64, put func(*accumulator, int64)) Key {
	limit := math.MaxInt64 / unit
	return key(name, fmt.Sprintf("an integer in [-%d, %d]", limit, limit), func(s string) (int64, error) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err == nil && (v > limit || v < -limit) {
			err = strconv.ErrRange
		}
		return v * unit, err
	}, put)
}

func boolKey(name string, put func(*accumulator, bool)) Key {
	return key(name, boolType, strconv.ParseBool, put)
}

// enumKey is a key whose values are a closed set of names.
func enumKey[T any](name string, values map[string]T, put func(*accumulator, T)) Key {
	return key(name, strings.Join(slices.Sorted(maps.Keys(values)), " | "), func(s string) (T, error) {
		v, ok := values[s]
		if !ok {
			return v, strconv.ErrSyntax
		}
		return v, nil
	}, put)
}

// algorithms names every Algorithm by its String(), the baselines included:
// Sort itself refuses a baseline that would emit output.
func algorithms() map[string]colsort.Algorithm {
	m := make(map[string]colsort.Algorithm)
	for a := colsort.Threaded4; a <= colsort.Hybrid; a++ {
		m[a.String()] = a
	}
	return m
}

// Keys is the closed set of option keys, in the order a request's values are
// read (so of two ill-typed values the same one is named every time).
var Keys = []Key{
	enumKey("alg", algorithms(), func(a *accumulator, v colsort.Algorithm) { a.alg = v }),
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
	boolKey("scrub", func(a *accumulator, v bool) { a.retry.Scrub = v }),
}

// knownKeyList renders the closed key set for error messages.
func knownKeyList() string {
	names := make([]string, len(Keys))
	for i, k := range Keys {
		names[i] = k.Name
	}
	return strings.Join(names, ", ")
}

// Parse reads the options of q strictly and spells them as colsort
// functional options. extra names caller-handled keys (e.g. "records" on the
// streaming endpoint) that are legal but contribute no option.
func Parse(q url.Values, extra ...string) ([]colsort.Option, error) {
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(extra, k) && !slices.ContainsFunc(Keys, func(w Key) bool { return w.Name == k }) {
			return nil, fmt.Errorf("unknown option %q (known: %s)", k, knownKeyList())
		}
	}
	a := accumulator{alg: colsort.Threaded}
	for _, k := range Keys {
		switch vs, given := q[k.Name]; {
		case !given:
		case len(vs) != 1:
			return nil, fmt.Errorf("option %q given %d times; each option may appear once", k.Name, len(vs))
		case vs[0] == "":
			return nil, fmt.Errorf("option %q has an empty value", k.Name)
		case !k.set(&a, vs[0]):
			return nil, fmt.Errorf("option %q: want %s, got %q", k.Name, k.Type, vs[0])
		}
	}

	// The one Go option spelled with two keys.
	hybrid := a.alg == colsort.Hybrid
	switch {
	case hybrid && !q.Has("group"):
		return nil, fmt.Errorf("alg=hybrid requires a group size: pass group=G")
	case !hybrid && q.Has("group"):
		return nil, fmt.Errorf("option %q only applies to alg=hybrid", "group")
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
	return a.opts, nil
}
