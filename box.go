package snapk

import (
	"math"
	"slices"
	"unsafe"

	"snapk/internal/tuple"
)

// This file boxes result values as Go values at the edge of the API:
// Rows.Values, Rows.Scan into *any, and every Result. Go boxes an int64,
// a float64 or a string into an interface by copying it into a fresh
// heap object, one per value. A boxer instead copies it into the next
// slot of a slab it owns — a []uint64 for numbers, a []string for
// strings — and builds the interface from the kind's type word and a
// pointer to that slot, the way the runtime points a small int at its
// static table. A slot is written once, before its box is handed out,
// and never again, so the box is an ordinary immutable int64, float64
// or string value: ==, map keys, type switches, reflect, fmt and
// encoding/json see no difference. A retained box keeps its whole slab
// alive. Ints in [0, 256), bools, the empty string and NULL take no
// slot: Go boxes them without allocating.

// eface is the gc runtime's layout of an interface{} value: the dynamic
// type's descriptor, then a pointer to the value.
type eface struct {
	typ, data unsafe.Pointer
}

// typeWord returns the type word of v's dynamic type.
func typeWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

var (
	int64Type   = typeWord(int64(0))
	float64Type = typeWord(float64(0))
	stringType  = typeWord("")
)

// boxAt returns the interface of dynamic type typ whose value is at p.
func boxAt(typ, p unsafe.Pointer) any {
	return *(*any)(unsafe.Pointer(&eface{typ: typ, data: p}))
}

// slotted reports whether boxing v takes a number or a string slot.
func slotted(v tuple.Value) (num, str bool) {
	switch v.Kind() {
	case tuple.KindInt:
		return uint64(v.AsInt()) >= 256, false
	case tuple.KindFloat:
		return true, false
	case tuple.KindString:
		return false, v.AsString() != ""
	}
	return false, false
}

// slots counts the number and string slots boxing vals takes.
func slots(vals tuple.Tuple) (nums, strs int) {
	for _, v := range vals {
		num, str := slotted(v)
		if num {
			nums++
		}
		if str {
			strs++
		}
	}
	return nums, strs
}

// boxer boxes values into the uncarved tails of its two slabs.
type boxer struct {
	nums []uint64
	strs []string
}

// fits reports whether the slabs have the slots that boxing vals takes.
func (b *boxer) fits(vals tuple.Tuple) bool {
	nums, strs := slots(vals)
	return nums <= len(b.nums) && strs <= len(b.strs)
}

// grow replaces a slab shorter than the slots asked of it with a fresh
// one of that many, and of the few more that fill its allocation's size
// class. A replaced slab stays alive as long as a box handed out from
// it.
func (b *boxer) grow(nums, strs int) {
	if len(b.nums) < nums {
		b.nums = slices.Grow([]uint64(nil), nums)
		b.nums = b.nums[:cap(b.nums)]
	}
	if len(b.strs) < strs {
		b.strs = slices.Grow([]string(nil), strs)
		b.strs = b.strs[:cap(b.strs)]
	}
}

// box returns v as a Go value: int64, float64, string, bool or nil. A
// slab without a slot for v first grows by one.
func (b *boxer) box(v tuple.Value) any {
	switch v.Kind() {
	case tuple.KindInt:
		x := v.AsInt()
		if uint64(x) < 256 {
			return x
		}
		return b.num(int64Type, uint64(x))
	case tuple.KindFloat:
		return b.num(float64Type, math.Float64bits(v.AsFloat()))
	case tuple.KindString:
		s := v.AsString()
		if s == "" {
			return s
		}
		b.grow(0, 1)
		p := &b.strs[0]
		*p = s
		b.strs = b.strs[1:]
		return boxAt(stringType, unsafe.Pointer(p))
	case tuple.KindBool:
		return v.AsBool()
	}
	return nil
}

// num boxes the 8 bytes x as type typ.
func (b *boxer) num(typ unsafe.Pointer, x uint64) any {
	b.grow(1, 0)
	p := &b.nums[0]
	*p = x
	b.nums = b.nums[1:]
	return boxAt(typ, unsafe.Pointer(p))
}

// boxRow boxes vals into dst, which has their length.
func (b *boxer) boxRow(dst []any, vals tuple.Tuple) {
	for i, v := range vals {
		dst[i] = b.box(v)
	}
}

// boxRows boxes a result whose size is known up front: k rows, row(i)
// returning row i's values. The rows' slices are cut from one slab, and
// their boxes from slabs sized to the slots they take.
func boxRows(k int, row func(i int) tuple.Tuple) [][]any {
	var bx boxer
	var vals, nums, strs int
	for i := range k {
		a, b := slots(row(i))
		vals, nums, strs = vals+len(row(i)), nums+a, strs+b
	}
	bx.grow(nums, strs)
	slab := make([]any, vals)
	out := make([][]any, k)
	for i := range out {
		n := len(row(i))
		out[i], slab = slab[:n:n], slab[n:]
		bx.boxRow(out[i], row(i))
	}
	return out
}
