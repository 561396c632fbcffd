package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"snapk"
)

// The output check rests on the paper's two theorems, not on a second
// copy of the rewriting: snapshot-reducibility (the result sliced at t
// equals the query over the snapshot at t, evaluated by the abstract
// model behind DB.QueryAt) and uniqueness of the K-coalesced encoding.

// Row hashes feed both checks. A row's value hash covers its data
// values only, so rows of one value group share it; the row hash adds
// the period. Values are tagged by kind so 1, 1.0, "1" and true differ.
const hashSeed = 0x9E3779B97F4A7C15

func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0xFF51AFD7ED558CCD
	return h ^ (h >> 32)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

const (
	tagNull = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

func hashAny(h uint64, v any) uint64 {
	switch x := v.(type) {
	case nil:
		return mix(h, tagNull)
	case int64:
		return mix(mix(h, tagInt), uint64(x))
	case float64:
		return mix(mix(h, tagFloat), math.Float64bits(x))
	case string:
		return mix(mix(h, tagString), hashString(x))
	case bool:
		if x {
			return mix(mix(h, tagBool), 1)
		}
		return mix(mix(h, tagBool), 0)
	}
	panic(fmt.Sprintf("spine: unexpected result value type %T", v))
}

func hashValues(vals []any) uint64 {
	h := uint64(hashSeed)
	for _, v := range vals {
		h = hashAny(h, v)
	}
	return h
}

// rowHash extends a value hash with the row's period.
func rowHash(valueHash uint64, begin, end int64) uint64 {
	return mix(mix(valueHash, uint64(begin)), uint64(end))
}

// digest is the order-independent fingerprint of a result: its row
// count and the wrapping sum of its row hashes. A sum, not an xor, so
// duplicate rows of a multiset do not cancel.
type digest struct {
	Rows int    `json:"rows"`
	Sum  uint64 `json:"sum"`
}

func (d *digest) add(valueHash uint64, begin, end int64) {
	d.Rows++
	d.Sum += rowHash(valueHash, begin, end)
}

// encRow is a result row reduced to what the unique-encoding check
// needs: its value group and its period.
type encRow struct {
	group      uint64
	begin, end int64
}

// checkCoalesced verifies that rows are the unique K-coalesced encoding
// of a multiset relation: within a value group, two periods are either
// identical (a duplicate, raising the multiplicity) or disjoint, and two
// adjacent periods carry different multiplicities (equal ones would
// have to be merged). It sorts rows in place.
func checkCoalesced(rows []encRow) error {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.group != b.group {
			return a.group < b.group
		}
		if a.begin != b.begin {
			return a.begin < b.begin
		}
		return a.end < b.end
	})
	var prev encRow
	prevMult := 0
	for i := 0; i < len(rows); {
		cur, mult := rows[i], 1
		for i+mult < len(rows) && rows[i+mult] == cur {
			mult++
		}
		i += mult
		if prevMult > 0 && prev.group == cur.group {
			if cur.begin < prev.end {
				return fmt.Errorf("periods [%d,%d) and [%d,%d) of one value group overlap", prev.begin, prev.end, cur.begin, cur.end)
			}
			if cur.begin == prev.end && mult == prevMult {
				return fmt.Errorf("adjacent periods [%d,%d) and [%d,%d) of one value group both have multiplicity %d", prev.begin, prev.end, cur.begin, cur.end, mult)
			}
		}
		prev, prevMult = cur, mult
	}
	return nil
}

// sortBag orders snapshot rows column by column: by kind, then by value.
func sortBag(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool {
		for c := range rows[i] {
			if d := compareValues(rows[i][c], rows[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
}

func kindRank(v any) int {
	switch v.(type) {
	case nil:
		return tagNull
	case int64:
		return tagInt
	case float64:
		return tagFloat
	case string:
		return tagString
	}
	return tagBool
}

func compareValues(a, b any) int {
	if d := kindRank(a) - kindRank(b); d != 0 {
		return d
	}
	switch x := a.(type) {
	case int64:
		return cmp.Compare(x, b.(int64))
	case float64:
		return cmp.Compare(x, b.(float64))
	case string:
		return strings.Compare(x, b.(string))
	case bool:
		if x == b.(bool) {
			return 0
		}
		if x {
			return 1
		}
		return -1
	}
	return 0
}

// sameValue is equality, except that floats may differ in the last
// digits: the engine's sweep adds and subtracts where the abstract model
// only adds, and both round an average to six decimals, so a tie there
// can fall either way.
func sameValue(a, b any) bool {
	x, ok := a.(float64)
	y, ok2 := b.(float64)
	if !ok || !ok2 {
		return a == b
	}
	return math.Abs(x-y) <= 1.5e-6+1e-9*math.Max(math.Abs(x), math.Abs(y))
}

// timePoints returns n seeded time points of db's domain, always
// including its first and its last point.
func timePoints(db *snapk.DB, n int, r *rand.Rand) []int64 {
	lo, hi := db.MinTime(), db.MaxTime()
	pts := []int64{lo, hi - 1}
	for len(pts) < n {
		pts = append(pts, lo+r.Int63n(hi-lo))
	}
	return pts
}

// checkReducible verifies snapshot-reducibility of one query on db at
// the given time points.
func checkReducible(db *snapk.DB, sql string, points []int64) error {
	res, err := db.Query(sql)
	if err != nil {
		return err
	}
	return sliceEqualsSnapshot(db, sql, res, points)
}

// sliceEqualsSnapshot checks that res, a temporal result of sql, sliced
// at each time point equals, as a multiset, the query evaluated over
// the snapshot of db at that point.
func sliceEqualsSnapshot(db *snapk.DB, sql string, res *snapk.Result, points []int64) error {
	for _, t := range points {
		want, err := db.QueryAt(sql, t)
		if err != nil {
			return err
		}
		got := res.At(t)
		if len(got) != len(want) {
			return fmt.Errorf("at t=%d the result slice has %d rows, the snapshot query %d", t, len(got), len(want))
		}
		sortBag(got)
		sortBag(want)
		for i := range got {
			for c := range got[i] {
				if !sameValue(got[i][c], want[i][c]) {
					return fmt.Errorf("at t=%d the result slice has row %v, the snapshot query %v", t, got[i], want[i])
				}
			}
		}
	}
	return nil
}

// goldenFile maps "<data>@<scale>#<seed>" to the digest of every query
// ID on that database. fig5-seq and fig5-par2 share the "fig5" entries:
// that is the check that parallelism does not change a result.
type goldenFile map[string]map[string]digest

func goldenKey(data, scale string, seed int64) string {
	return fmt.Sprintf("%s@%s#%d", data, scale, seed)
}

func readGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g goldenFile) write(path string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
