package snap

import (
	"errors"
	"slices"
	"testing"
)

// decodeSparse reads one sparse table of n entries from a stream and
// returns it with the reader's final error.
func decodeSparse(t *testing.T, data []byte, n int) ([]uint64, error) {
	t.Helper()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, n)
	for i := range dst {
		dst[i] = 0xdead // Sparse must clear entries the stream leaves out
	}
	r.Sparse(dst)
	return dst, r.Done()
}

func TestSparseRoundTrip(t *testing.T) {
	for _, table := range [][]uint64{
		{},
		make([]uint64, 64),
		{7},
		{0, 0, 3, 0, 0, 0, 1 << 63, 0, 9},
		{1, 2, 3, 4},
	} {
		w := NewWriter()
		w.Sparse(table)
		data := w.Finish()
		nonzero := 0
		for _, v := range table {
			if v != 0 {
				nonzero++
			}
		}
		if want := len(magic) + 16 + 16*nonzero; len(data) != want {
			t.Errorf("%v: encoded %d bytes, want %d", table, len(data), want)
		}
		got, err := decodeSparse(t, data, len(table))
		if err != nil {
			t.Fatalf("%v: %v", table, err)
		}
		if !slices.Equal(got, table) {
			t.Errorf("round trip %v -> %v", table, got)
		}
	}
}

// TestSparseRejectsNonCanonical hand-writes every other encoding a table
// could be given and checks the reader refuses it: one state, one stream.
func TestSparseRejectsNonCanonical(t *testing.T) {
	const n = 8
	// stream writes a length, a count and then the given words raw.
	stream := func(length, count uint64, words ...uint64) []byte {
		w := NewWriter()
		w.U64(length)
		w.U64(count)
		for _, v := range words {
			w.U64(v)
		}
		return w.Finish()
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"length mismatch", stream(n+1, 1, 2, 5)},
		{"index out of range", stream(n, 1, n, 5)},
		{"index repeated", stream(n, 2, 3, 5, 3, 6)},
		{"index descending", stream(n, 2, 4, 5, 3, 6)},
		{"zero value", stream(n, 2, 1, 5, 2, 0)},
		{"count beyond stream", stream(n, 3, 1, 5, 2, 6)},
		{"huge count", stream(n, 1<<62)},
	}
	for _, tc := range cases {
		if _, err := decodeSparse(t, tc.data, n); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", tc.name, err)
		}
	}
	// The canonical form of the same entries is accepted.
	if _, err := decodeSparse(t, stream(n, 2, 3, 5, 4, 6), n); err != nil {
		t.Errorf("canonical stream rejected: %v", err)
	}
}
