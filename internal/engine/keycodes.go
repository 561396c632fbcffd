package engine

import (
	"math"
	"slices"
	"sync/atomic"

	"snapk/internal/tuple"
)

// This file is the table's dense key codes: for a key column set that a
// streaming sweep groups by, one int32 code per stored row. Two rows
// share a code exactly when their key columns are, column by column,
// SameKey — the grouping the sweep's group table uses — and codes are
// numbered in first-seen storage order, so over a begin-sorted table the
// codes of the groups open at one instant lie in a sliding window. A
// sweep whose every input is a scan of the table, read through maps,
// filters and windows, then finds a row's group by its code in a flat
// index instead of hashing its key (groupTable.slotOf). At W > 1 the
// scan partition routes that sweep's rows by code as well, through a
// code → fragment map balanced by rows (KeyParts), and hashes none.
//
// The codes are a function of the stored rows: a table caches them like
// its statistics, in an atomic pointer to an immutable list, and every
// mutator drops them — Sort and SortByEndpoints too, since a code
// belongs to a row position. A routing map hangs off its code set and
// drops with it.

// keyCodes is one key column set's codes over a table's stored rows.
type keyCodes struct {
	cols  []int
	codes []int32 // per stored row
	n     int     // distinct codes: every code lies in [0, n)
	// parts caches the scan partition's routing maps over these codes
	// (KeyParts), one per fragment count: an immutable list, like the
	// table's list of code sets, so a writer drops it with the codes.
	parts atomic.Pointer[partsCache]
}

// keyParts is a w-way routing map over one code set: frag[c] is the
// fragment that keeps the rows of code c.
type keyParts struct {
	w    int
	frag []uint8
}

// partsCache is the immutable list of a code set's routing maps.
type partsCache []*keyParts

// find returns the cached map of w fragments, or nil.
func (c *partsCache) find(w int) []uint8 {
	if c == nil {
		return nil
	}
	for _, p := range *c {
		if p.w == w {
			return p.frag
		}
	}
	return nil
}

// codeCache is the immutable list of a table's cached key codes.
type codeCache []*keyCodes

// find returns the cached codes of cols over rows stored rows, or nil.
func (c *codeCache) find(cols []int, rows int) *keyCodes {
	if c == nil {
		return nil
	}
	for _, kc := range *c {
		if len(kc.codes) == rows && slices.Equal(kc.cols, cols) {
			return kc
		}
	}
	return nil
}

// KeyCodes returns the dense codes of the stored rows' key columns cols:
// codes[i] is row i's code, and every code lies in [0, n). It builds
// them on first use and caches them until the next write; concurrent
// callers may both build, and both get the same codes. ok is false when
// the table holds more rows than int32 codes can number. The returned
// slice is shared and must not be written.
func (t *Table) KeyCodes(cols []int) (codes []int32, n int, ok bool) {
	kc := t.keyCodes(cols)
	if kc == nil {
		return nil, 0, false
	}
	return kc.codes, kc.n, true
}

// keyCodes returns the cached codes of cols, built on first use, or nil
// when the table holds more rows than int32 codes can number.
func (t *Table) keyCodes(cols []int) *keyCodes {
	if len(t.Rows) > math.MaxInt32 {
		return nil
	}
	var built *keyCodes
	for {
		old := t.codes.Load()
		if kc := old.find(cols, len(t.Rows)); kc != nil {
			return kc
		}
		if built == nil {
			codes, n := buildKeyCodes(t.Rows, cols, ^uint64(0))
			built = &keyCodes{cols: slices.Clone(cols), codes: codes, n: n}
		}
		var sets codeCache
		if old != nil {
			for _, kc := range *old {
				if len(kc.codes) == len(t.Rows) {
					sets = append(sets, kc)
				}
			}
		}
		sets = append(sets, built)
		if t.codes.CompareAndSwap(old, &sets) {
			return built
		}
	}
}

// KeyParts returns the routing map of a w-way scan partition over the
// key codes of cols (KeyCodes): frag[c] is the fragment that keeps the
// rows of code c. Rows of one code, so of SameKey keys, meet in one
// fragment, and the fragments hold about equal numbers of stored rows
// (buildKeyParts). It builds the map on first use and caches it with the
// codes, so it goes with them on the next write; concurrent callers may
// both build, and both get the same map. It returns nil where the table
// has no codes or w is beyond maxParts, and the scan hashes its rows
// instead. The returned slice is shared and must not be written.
func (t *Table) KeyParts(cols []int, w int) []uint8 {
	kc := t.keyCodes(cols)
	if kc == nil {
		return nil
	}
	var built []uint8
	for {
		old := kc.parts.Load()
		if frag := old.find(w); frag != nil {
			return frag
		}
		if built == nil {
			if built = buildKeyParts(kc.codes, kc.n, w); built == nil {
				return nil
			}
		}
		var maps partsCache
		if old != nil {
			maps = slices.Clip(*old)
		}
		maps = append(maps, &keyParts{w: w, frag: built})
		if kc.parts.CompareAndSwap(old, &maps) {
			return built
		}
	}
}

// SizeBytes approximates the memory the table holds: its rows, each
// priced by ApproxRowBytes, and its cached key codes, 4 bytes per row
// per key column set, with their routing maps, a byte per code each.
func (t *Table) SizeBytes() int64 {
	n := int64(len(t.Rows)) * ApproxRowBytes(t.Schema.Arity())
	if c := t.codes.Load(); c != nil {
		for _, kc := range *c {
			n += 4 * int64(len(kc.codes))
			if maps := kc.parts.Load(); maps != nil {
				for _, p := range *maps {
					n += int64(len(p.frag))
				}
			}
		}
	}
	return n
}

// maxParts is the most fragments a routing map can name: one uint8 per
// code.
const maxParts = math.MaxUint8 + 1

// buildKeyParts maps the n codes of codes onto w fragments, balanced by
// rows: one counting pass finds each code's rows, then, in code order,
// each code goes to the fragment with the fewest rows so far (the lower
// index on a tie). A fragment's last code found it holding at most N/W
// rows, so no fragment ends above N/W plus the rows of the largest code.
// It returns nil when w is not in [1, maxParts].
func buildKeyParts(codes []int32, n, w int) []uint8 {
	if w < 1 || w > maxParts {
		return nil
	}
	rows := make([]int32, n)
	for _, c := range codes {
		rows[c]++
	}
	load := make([]int64, w)
	frag := make([]uint8, n)
	for c, k := range rows {
		f := 0
		for g := 1; g < w; g++ {
			if load[g] < load[f] {
				f = g
			}
		}
		frag[c] = uint8(f)
		load[f] += int64(k)
	}
	return frag
}

// hashBits is how many of a key's top hash bits the build sorts by:
// rows whose keys share them form one run, and keys that share them by
// chance are told apart by SameKey, as colliding keys are. Over fig5's
// 273 k keys about 9 pairs share 33 bits.
const hashBits = 33

// buildKeyCodes codes rows by their columns cols in sequential passes,
// with no hash table: it packs the top hashBits of each row's HashKey
// (under mask, which tests clear to make every row collide) above the
// row's index and radix sorts the packed keys by those bits, stably, so
// the rows whose hash bits agree sit together in storage order, and
// points each row at the first row of its run. A pass in storage order
// then numbers the first row of each key and gives every other row its
// first row's code, once SameKey confirms the two keys equal; a row whose
// key only shares its hash bits with that row looks among the other keys
// of its run. It returns the codes and their number.
func buildKeyCodes(rows []tuple.Tuple, cols []int, mask uint64) ([]int32, int) {
	n := len(rows)
	codes := make([]int32, n)
	if n == 0 {
		return codes, 0
	}
	const shift, idx = 64 - hashBits, 1<<(64-hashBits) - 1 // hash bits above, row index below
	keys := make([]uint64, n)
	hashRows(keys, rows, cols)
	for i, h := range keys {
		keys[i] = h&mask>>shift<<shift | uint64(i)
	}
	keys = sortHashBits(keys, make([]uint64, n))
	for s := 0; s < n; {
		first, e := int32(keys[s]&idx), s+1
		for e < n && keys[e]>>shift == keys[s]>>shift {
			e++
		}
		for _, k := range keys[s:e] {
			codes[k&idx] = first
		}
		s = e
	}
	// others holds, per run with more than one key, the first row of each
	// of its keys but the first, in first-seen order.
	var others map[int32][]int32
	next := int32(0)
	for i := range codes {
		r := codes[i]
		switch {
		case int(r) == i:
			codes[i] = next
			next++
		case sameKeyAt(rows[i], rows[r], cols):
			codes[i] = codes[r]
		default:
			j := slices.IndexFunc(others[r], func(q int32) bool { return sameKeyAt(rows[i], rows[q], cols) })
			if j >= 0 {
				codes[i] = codes[others[r][j]]
				continue
			}
			if others == nil {
				others = make(map[int32][]int32)
			}
			others[r] = append(others[r], int32(i))
			codes[i] = next
			next++
		}
	}
	return codes, int(next)
}

// gatherRows is how many rows hashRows copies the keys of at a time.
const gatherRows = 256

// hashRows sets hashes[i] to rows[i].HashKey(cols). It copies the keys of
// gatherRows rows at a time into one buffer before it hashes them: the
// copy loop is short, so the processor has many rows' loads in flight at
// once, where hashing row by row waits for each row in turn.
func hashRows(hashes []uint64, rows []tuple.Tuple, cols []int) {
	w := len(cols)
	buf := make(tuple.Tuple, gatherRows*w)
	for lo := 0; lo < len(rows); lo += gatherRows {
		chunk := rows[lo:min(lo+gatherRows, len(rows))]
		k := 0
		for _, row := range chunk {
			for _, c := range cols {
				buf[k] = row[c]
				k++
			}
		}
		for j := range chunk {
			hashes[lo+j] = buf[j*w : (j+1)*w].HashKey(nil)
		}
	}
}

// sameKeyAt reports whether a and b are SameKey in every column of cols.
func sameKeyAt(a, b tuple.Tuple, cols []int) bool {
	for _, c := range cols {
		if !tuple.SameKey(a[c], b[c]) {
			return false
		}
	}
	return true
}

// sortHashBits sorts packed keys by their top hashBits bits, stably: a
// least-significant-digit radix sort with one 11-bit counting pass per
// digit in which the keys differ, as sortEvents, so three passes at
// most. buf is scratch of keys' length; it returns the sorted keys, in
// keys or in buf.
func sortHashBits(keys, buf []uint64) []uint64 {
	const digit, passes = 11, (hashBits + 10) / 11
	var counts [passes][1 << digit]int
	for _, k := range keys {
		for p := range passes {
			counts[p][k>>(64-digit*(passes-p))&(1<<digit-1)]++
		}
	}
	for p := range passes {
		c, shift := &counts[p], 64-digit*(passes-p)
		if c[keys[0]>>shift&(1<<digit-1)] == len(keys) {
			continue
		}
		at := 0
		for b, k := range c {
			c[b], at = at, at+k
		}
		for _, k := range keys {
			b := k >> shift & (1<<digit - 1)
			buf[c[b]] = k
			c[b]++
		}
		keys, buf = buf, keys
	}
	return keys
}
