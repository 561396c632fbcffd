package engine

import "bytes"

// Coalesce implements the coalesce operator C (Def 8.2): it replaces the
// rows of every value-equivalent group with the unique N-coalesced
// encoding — maximal intervals of constant multiplicity, one row per
// multiplicity unit. The output is the canonical PERIODENC image of the
// ℕᵀ-relation the input encodes.
//
// Since max(0, k − 0) = k, C(R) = R ∸ ∅: the coalesce is the blocking
// difference sweep with no rows subtracted, which already closes a
// segment only where the multiplicity changes.
func Coalesce(in *Table) *Table {
	out := &Table{Schema: in.Schema, Rows: newBlockSweep(countKernel(), dataColumns(in.DataArity())).run(in.Rows)}
	// The output is the unique encoding by construction; record it so
	// KnownCoalesced answers without a rescan.
	out.markCoalesced()
	return out
}

// IsCoalesced reports whether the table already is its own coalesced
// encoding — used by tests to verify the uniqueness guarantee on final
// query results. It deliberately ignores the cached coalescedness
// metadata (see Table.KnownCoalesced): the differential harness uses it
// as the oracle that VALIDATES the sweeps, so it must recompute.
func IsCoalesced(in *Table) bool {
	c := Coalesce(in)
	if len(c.Rows) != len(in.Rows) {
		return false
	}
	a, b := in.Clone(), c
	a.Sort()
	b.Sort()
	var ka, kb []byte
	for i := range a.Rows {
		ka = a.Rows[i].AppendKey(ka[:0], nil)
		kb = b.Rows[i].AppendKey(kb[:0], nil)
		if !bytes.Equal(ka, kb) {
			return false
		}
	}
	return true
}
