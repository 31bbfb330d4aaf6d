package vm

import (
	"cmp"
	"slices"

	"repro/internal/snap"
)

// Snapshot support for the functional substrate. Each method writes the
// receiver's mutable state to a snap.Writer in a fixed field order (map-backed
// state in sorted key order, so identical machine state always encodes to
// identical bytes) and the matching RestoreFrom reads it back. Wiring —
// the Overlay→Memory link, a Thread's Corrupt/IORead hooks, its Prog — is
// not serialized: restore targets a freshly built machine that already has
// the static structure in place.

// SnapshotTo writes the committed memory image: resident pages in ascending
// page-number order.
func (m *Memory) SnapshotTo(w *snap.Writer) {
	nums := make([]uint64, 0, len(m.pages))
	for pn := range m.pages {
		nums = append(nums, pn)
	}
	slices.Sort(nums)
	w.U64(uint64(len(nums)))
	for _, pn := range nums {
		w.U64(pn)
		w.Bytes(m.pages[pn][:])
	}
}

// RestoreFrom replaces the memory image with the snapshot's pages. A page
// already resident is overwritten in place rather than reallocated;
// resident pages the snapshot lacks are dropped.
func (m *Memory) RestoreFrom(r *snap.Reader) {
	n := r.Count(16)
	old := m.pages
	m.pages = make(map[uint64]*page, n)
	m.cacheP = [16]*page{} // cached pointers may target dropped pages
	for i := 0; i < n; i++ {
		pn := r.U64()
		b := r.Bytes()
		if len(b) != pageSize {
			continue // sticky reader error already latched on truncation
		}
		p := old[pn]
		if p == nil {
			p = new(page)
		}
		copy(p[:], b)
		m.pages[pn] = p
	}
}

// SnapshotTo writes the overlay's pending store bytes in ascending address
// order. The backing Memory is shared between threads and serialized once
// by the machine layer, not here.
func (o *Overlay) SnapshotTo(w *snap.Writer) {
	var pending []*overlayWord
	for i := range o.slab {
		if o.slab[i].mask != 0 { // empty words are kept for pool reuse
			pending = append(pending, &o.slab[i])
		}
	}
	slices.SortFunc(pending, func(a, b *overlayWord) int { return cmp.Compare(a.addr, b.addr) })
	w.U64(uint64(o.n))
	for _, ow := range pending {
		for i := uint64(0); i < 8; i++ {
			if ow.mask&(1<<i) != 0 {
				w.U64(ow.addr<<3 | i)
				w.U64(uint64(byte(ow.val >> (8 * i))))
				w.U64(ow.seq[i])
			}
		}
	}
}

// RestoreFrom replaces the pending byte set, reusing the slab and index
// map, and leaves the backing Memory link untouched.
func (o *Overlay) RestoreFrom(r *snap.Reader) {
	n := r.Count(24)
	clear(o.words)
	o.slab = o.slab[:0]
	o.n = 0
	o.filter = 0
	o.cacheW = [8]int32{} // cached indices target the discarded slab entries
	for i := 0; i < n; i++ {
		a := r.U64()
		val := byte(r.U64())
		seq := r.U64()
		o.storeByte(a, val, seq)
	}
}

// SnapshotTo writes the thread's architectural state and its overlay's
// pending bytes. Prog, Corrupt, and IORead are wiring and stay with the
// rebuilt machine.
func (t *Thread) SnapshotTo(w *snap.Writer) {
	w.U64(t.PC)
	for _, v := range t.IntReg {
		w.U64(v)
	}
	for _, v := range t.FPReg {
		w.U64(v)
	}
	w.U64(t.Seq)
	w.Bool(t.Halted)
	w.Bool(t.Tolerant)
	w.Bool(t.Trapped)
	t.Mem.SnapshotTo(w)
}

// RestoreFrom reads state written by SnapshotTo.
func (t *Thread) RestoreFrom(r *snap.Reader) {
	t.PC = r.U64()
	for i := range t.IntReg {
		t.IntReg[i] = r.U64()
	}
	for i := range t.FPReg {
		t.FPReg[i] = r.U64()
	}
	t.Seq = r.U64()
	t.Halted = r.Bool()
	t.Tolerant = r.Bool()
	t.Trapped = r.Bool()
	t.Mem.RestoreFrom(r)
}

// SnapshotTo writes the device's counter state and write log.
func (d *PseudoDevice) SnapshotTo(w *snap.Writer) {
	w.U64(d.state)
	w.U64(d.Reads)
	w.U64(uint64(len(d.WriteLog)))
	for _, rec := range d.WriteLog {
		w.U64(rec.Addr)
		w.U64(rec.Val)
	}
}

// RestoreFrom reads state written by SnapshotTo.
func (d *PseudoDevice) RestoreFrom(r *snap.Reader) {
	d.state = r.U64()
	d.Reads = r.U64()
	n := r.Count(16)
	d.WriteLog = make([]IOWriteRecord, n)
	for i := 0; i < n; i++ {
		d.WriteLog[i] = IOWriteRecord{Addr: r.U64(), Val: r.U64()}
	}
}
