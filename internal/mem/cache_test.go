package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/snap"
)

func flat(lat uint64) *FlatMemory { return &FlatMemory{Latency: lat} }

func small(next Level) *Cache {
	return NewCache(Config{
		Name: "t", SizeBytes: 1024, Ways: 2, BlockBytes: 64, HitLatency: 0,
	}, next)
}

func TestCacheMissThenHit(t *testing.T) {
	c := small(flat(100))
	done, hit := c.Lookup(0x40, 0)
	if hit || done != 100 {
		t.Fatalf("first access: done=%d hit=%v, want miss filling at 100", done, hit)
	}
	done, hit = c.Lookup(0x40, 200)
	if !hit || done != 200 {
		t.Fatalf("second access: done=%d hit=%v, want 0-latency hit", done, hit)
	}
	if c.Hits.Value() != 1 || c.Misses.Value() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits.Value(), c.Misses.Value())
	}
}

func TestCacheInFlightFillCombines(t *testing.T) {
	// A second access to a block still being filled must wait for the same
	// fill, not start another (MSHR behaviour).
	c := small(flat(100))
	c.Lookup(0x40, 0) // fill completes at 100
	done, hit := c.Lookup(0x48, 10)
	if !hit {
		t.Fatal("same-block access should hit the in-flight line")
	}
	if done != 100 {
		t.Fatalf("in-flight hit done=%d, want 100", done)
	}
	next := c.next.(*FlatMemory)
	if next.Accesses.Value() != 1 {
		t.Errorf("next-level accesses = %d, want 1", next.Accesses.Value())
	}
}

func TestCacheSameBlockDistinctAddresses(t *testing.T) {
	c := small(flat(10))
	c.Lookup(0x80, 0)
	if _, hit := c.Lookup(0xBF, 20); !hit {
		t.Error("last byte of the block should hit")
	}
	if _, hit := c.Lookup(0xC0, 20); hit {
		t.Error("next block should miss")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	// 1024/2/64 = 8 sets; addresses 64*8 apart share a set.
	c := small(flat(10))
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Lookup(a, 0)
	c.Lookup(b, 100) // set now holds {b, a}
	c.Lookup(a, 200) // touch a -> {a, b}
	c.Lookup(d, 300) // evicts b
	if _, hit := c.Lookup(a, 400); !hit {
		t.Error("a should still be resident (MRU)")
	}
	if _, hit := c.Lookup(b, 500); hit {
		t.Error("b should have been the LRU victim")
	}
}

func TestWayPredictionPenalty(t *testing.T) {
	cfg := Config{Name: "wp", SizeBytes: 1024, Ways: 2, BlockBytes: 64, HitLatency: 0, WayPredict: true}
	c := NewCache(cfg, flat(10))
	setStride := uint64(64 * 8)
	a, b := uint64(0), setStride
	c.Lookup(a, 0)
	c.Lookup(b, 100) // b becomes MRU/predicted
	done, hit := c.Lookup(a, 200)
	if !hit || done != 201 {
		t.Fatalf("way-mispredicted hit: done=%d hit=%v, want 201", done, hit)
	}
	if c.WayMispredicts.Value() != 1 {
		t.Errorf("way mispredicts = %d", c.WayMispredicts.Value())
	}
	// Retrained: immediate re-access costs nothing extra.
	if done, _ := c.Lookup(a, 300); done != 300 {
		t.Errorf("retrained access done=%d, want 300", done)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// The 3 MB / 8-way / 64 B L2 of Table 1 has 6144 sets.
	c := NewCache(Config{Name: "l2", SizeBytes: 3 << 20, Ways: 8, BlockBytes: 64, HitLatency: 12}, flat(100))
	addrs := []uint64{0, 1 << 20, 3 << 20, 0xdeadbe00, 1<<43 | 0x40}
	for _, a := range addrs {
		c.Lookup(a, 0)
	}
	for _, a := range addrs {
		if _, hit := c.Lookup(a, 1000); !hit {
			t.Errorf("addr %#x should be resident", a)
		}
	}
}

func TestCacheQuickNoFalseHits(t *testing.T) {
	// Property: an address never accessed before must miss.
	c := NewCache(Config{Name: "q", SizeBytes: 4096, Ways: 4, BlockBytes: 64}, flat(10))
	seen := map[uint64]bool{}
	f := func(addr uint64) bool {
		block := addr >> 6
		_, hit := c.Lookup(addr, 0)
		if hit && !seen[block] {
			return false // false hit
		}
		seen[block] = true
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHierarchySharedL2(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	h0 := NewHierarchy(cfg, nil)
	h1 := NewHierarchy(cfg, h0.L2)
	if h0.L2 != h1.L2 {
		t.Fatal("second hierarchy should share the first's L2")
	}
	// A block fetched through core 0's L1D lands in the shared L2; core
	// 1's L1D miss should then hit L2 (12 cycles, not memory's 100).
	h0.L1D.Access(0x1000, 0)
	done := h1.L1D.Access(0x1000, 1000)
	if done-1000 > cfg.L2Latency {
		t.Errorf("cross-core L2 hit took %d cycles, want <= %d", done-1000, cfg.L2Latency)
	}
}

func TestCheckerMissPenalty(t *testing.T) {
	cfg := DefaultHierarchyConfig()
	cfg.CheckerMissPenalty = 8
	h := NewHierarchy(cfg, nil)
	done := h.L1D.Access(0x40, 0)
	want := cfg.L2Latency + cfg.MemLatency + 8
	if done != want {
		t.Errorf("Lock8 miss done=%d, want L2+mem+checker=%d", done, want)
	}
}

func TestMergeBufferCoalescing(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(), nil)
	mb := NewMergeBuffer(4, 64, h.L1D)
	if !mb.CanAccept(0x100, 0) {
		t.Fatal("empty buffer should accept")
	}
	mb.Accept(0x100, 0)
	mb.Accept(0x108, 0) // same block: coalesces
	if mb.Coalesced.Value() != 1 {
		t.Errorf("coalesced = %d, want 1", mb.Coalesced.Value())
	}
	if mb.Occupancy(0) != 1 {
		t.Errorf("occupancy = %d, want 1", mb.Occupancy(0))
	}
}

func TestMergeBufferCapacityAndExpiry(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig(), nil)
	mb := NewMergeBuffer(2, 64, h.L1D)
	mb.Accept(0x000, 0)
	mb.Accept(0x100, 0)
	if mb.CanAccept(0x200, 0) {
		t.Fatal("full buffer accepted a third block")
	}
	if !mb.CanAccept(0x100, 0) {
		t.Fatal("full buffer must still coalesce into existing blocks")
	}
	// After the writes complete (memory latency), entries expire.
	late := uint64(10000)
	if !mb.CanAccept(0x200, late) {
		t.Error("entries should have expired")
	}
	if mb.Occupancy(late) != 0 {
		t.Errorf("occupancy = %d after expiry", mb.Occupancy(late))
	}
}

// TestCacheSnapshotSparse checks that a cache snapshot carries only its
// filled lines, restores replacement state exactly, and that a restored
// cache re-encodes to the same bytes.
func TestCacheSnapshotSparse(t *testing.T) {
	c := small(flat(10))
	setStride := uint64(64 * 8)
	c.Lookup(0, 0)
	c.Lookup(setStride, 100) // set 0 now holds {setStride, 0}
	c.Lookup(0x40, 200)
	w := snap.NewWriter()
	c.SnapshotTo(w)
	data := w.Finish()
	// Header, geometry, line count, three lines of four words, counters.
	if want := 8 + 8*(2+1+3*4+3); len(data) != want {
		t.Errorf("snapshot of 3 filled lines is %d bytes, want %d", len(data), want)
	}
	d := small(flat(10))
	d.Lookup(5*setStride, 0) // stale line the restore must clear
	r, err := snap.NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	d.RestoreFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if d.Probe(5 * setStride) {
		t.Error("restore kept a line the snapshot does not hold")
	}
	w2 := snap.NewWriter()
	d.SnapshotTo(w2)
	if !bytes.Equal(w2.Finish(), data) {
		t.Error("restored cache re-encodes differently")
	}
	d.Lookup(2*setStride, 300) // evicts the LRU line of set 0, which is 0
	if _, hit := d.Lookup(setStride, 400); !hit {
		t.Error("restored MRU line was evicted")
	}
	if _, hit := d.Lookup(0, 500); hit {
		t.Error("restored LRU line survived an eviction")
	}
}

// TestCacheRestoreRejectsNonCanonical: line entries out of order, out of
// range or zero are not what SnapshotTo writes, so restore refuses them.
func TestCacheRestoreRejectsNonCanonical(t *testing.T) {
	c := small(flat(10))
	// entries writes geometry, then the given (index, tag, valid, readyAt)
	// words, then zero counters.
	entries := func(lines ...uint64) []byte {
		w := snap.NewWriter()
		w.U64(c.nsets)
		w.Int(c.ways)
		w.Int(len(lines) / 4)
		for _, v := range lines {
			w.U64(v)
		}
		w.U64(0)
		w.U64(0)
		w.U64(0)
		return w.Finish()
	}
	n := uint64(len(c.lines))
	cases := map[string][]byte{
		"descending": entries(3, 1, 1, 0, 2, 1, 1, 0),
		"repeated":   entries(2, 1, 1, 0, 2, 1, 1, 0),
		"past end":   entries(n, 1, 1, 0),
		"zero line":  entries(2, 0, 0, 0),
	}
	for name, data := range cases {
		r, err := snap.NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		c.RestoreFrom(r)
		if err := r.Done(); !errors.Is(err, snap.ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
	r, _ := snap.NewReader(entries(2, 1, 1, 0, 3, 1, 1, 0))
	c.RestoreFrom(r)
	if err := r.Done(); err != nil {
		t.Errorf("canonical entries rejected: %v", err)
	}
}
