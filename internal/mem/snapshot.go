package mem

import (
	"repro/internal/snap"
	"repro/internal/stats"
)

// Snapshot support for the memory hierarchy. Geometry (set counts, ways,
// block size, latencies) is configuration and is validated rather than
// restored: RestoreFrom targets a cache freshly built from the same Config,
// so only the replacement state, in-flight fills, and counters travel. Way
// order within a set IS the MRU order, so a line's index in the flat line
// array reproduces replacement behavior exactly.

// SnapshotTo writes the cache's mutable state. Lines are never invalidated,
// so an invalid line is the zero line and only the filled ones travel: the
// count of non-zero lines, then (index, tag, valid, readyAt) for each in
// ascending index order. A run touches a small share of a large L2, so
// this is most of what keeps a machine snapshot small.
func (c *Cache) SnapshotTo(w *snap.Writer) {
	w.U64(c.nsets)
	w.Int(c.ways)
	n := 0
	for i := range c.lines {
		if c.lines[i] != (line{}) {
			n++
		}
	}
	w.Int(n)
	for i, l := range c.lines {
		if l != (line{}) {
			w.Int(i)
			w.U64(l.tag)
			w.Bool(l.valid)
			w.U64(l.readyAt)
		}
	}
	w.U64(c.Hits.Value())
	w.U64(c.Misses.Value())
	w.U64(c.WayMispredicts.Value())
}

// RestoreFrom reads state written by SnapshotTo into an identically
// configured cache, latching a reader error on geometry mismatch or on any
// line list SnapshotTo would not have written (indices out of range or not
// ascending, zero lines), so one state has exactly one encoding.
func (c *Cache) RestoreFrom(r *snap.Reader) {
	if r.U64() != c.nsets || r.Int() != c.ways {
		r.Failf("cache %q geometry mismatch", c.name)
		return
	}
	n := r.Count(32)
	clear(c.lines)
	next := uint64(0) // lowest index the next line may use
	for k := 0; k < n; k++ {
		i := r.U64()
		l := line{tag: r.U64(), valid: r.Bool(), readyAt: r.U64()}
		if r.Err() != nil {
			return
		}
		if i < next || i >= uint64(len(c.lines)) || l == (line{}) {
			r.Failf("cache %q line entry %d (index %d) out of order, out of range or zero", c.name, k, i)
			return
		}
		c.lines[i] = l
		next = i + 1
	}
	c.Hits = stats.Counter(r.U64())
	c.Misses = stats.Counter(r.U64())
	c.WayMispredicts = stats.Counter(r.U64())
}

// SnapshotTo writes the flat memory's access counter.
func (m *FlatMemory) SnapshotTo(w *snap.Writer) {
	w.U64(m.Accesses.Value())
}

// RestoreFrom reads state written by SnapshotTo.
func (m *FlatMemory) RestoreFrom(r *snap.Reader) {
	m.Accesses = stats.Counter(r.U64())
}

// SnapshotTo writes the merge buffer's slots (slot identity matters: Accept
// fills the first invalid slot, so position is behavior) and counters.
func (m *MergeBuffer) SnapshotTo(w *snap.Writer) {
	w.Int(len(m.slots))
	for _, s := range m.slots {
		w.U64(s.block)
		w.U64(s.done)
		w.Bool(s.valid)
	}
	w.Int(m.n)
	w.U64(m.Coalesced.Value())
	w.U64(m.Writes.Value())
}

// RestoreFrom reads state written by SnapshotTo into an identically sized
// merge buffer.
func (m *MergeBuffer) RestoreFrom(r *snap.Reader) {
	if r.Int() != len(m.slots) {
		r.Failf("merge buffer capacity mismatch")
		return
	}
	for i := range m.slots {
		m.slots[i].block = r.U64()
		m.slots[i].done = r.U64()
		m.slots[i].valid = r.Bool()
	}
	m.n = r.Int()
	m.Coalesced = stats.Counter(r.U64())
	m.Writes = stats.Counter(r.U64())
}
