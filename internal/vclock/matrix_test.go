package vclock

import "testing"

func TestMatrixRowsIndependent(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 5)
	m.Row(1).Set(2, 7)
	if m.Get(0, 1) != 5 || m.Get(1, 2) != 7 {
		t.Fatalf("entries lost: %v", m)
	}
	if m.Get(1, 1) != 0 || m.Get(2, 2) != 0 {
		t.Fatalf("writes leaked across rows: %v", m)
	}
}

func TestMatrixCloneIsDeep(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 0, 3)
	c := m.Clone()
	c.Set(0, 0, 99)
	c.Set(1, 1, 4)
	if m.Get(0, 0) != 3 || m.Get(1, 1) != 0 {
		t.Fatalf("clone aliased original: %v", m)
	}
	if Matrix(nil).Clone() != nil {
		t.Fatal("nil clone should stay nil")
	}
}

func TestMatrixMerge(t *testing.T) {
	a := NewMatrix(2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 1)
	b := NewMatrix(2)
	b.Set(0, 0, 2)
	b.Set(0, 1, 9)
	a.Merge(b)
	if a.Get(0, 0) != 4 || a.Get(0, 1) != 9 || a.Get(1, 1) != 1 {
		t.Fatalf("merge wrong: %v", a)
	}
	// Mismatched sizes merge only the shared prefix, never panic.
	a.Merge(NewMatrix(5))
	a.Merge(nil)
}

func TestMatrixActive(t *testing.T) {
	m := NewMatrix(6)
	m.Set(1, 4, 7) // row 1 and column 4 become active
	got := m.appendActive(nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("active = %v, want [1 4]", got)
	}
	if a := NewMatrix(6).appendActive(nil); len(a) != 0 {
		t.Fatalf("zero matrix has active indices %v", a)
	}
	if a := Matrix(nil).appendActive(nil); len(a) != 0 {
		t.Fatalf("nil matrix has active indices %v", a)
	}
}

func TestMatrixEncodeActiveSizeIgnoresIdlePeers(t *testing.T) {
	// The same three-peer interaction embedded in clusters of growing size
	// must encode to the same number of bytes: idle rows and columns cost
	// nothing on the wire.
	sizes := []int{4, 16, 64, 256}
	var first []byte
	for _, n := range sizes {
		m := NewMatrix(n)
		m.Set(0, 2, 5)
		m.Set(2, 3, 1)
		m.Set(3, 0, 9)
		enc := m.EncodeActive(nil)
		if len(enc) != m.ActiveEncodedSize() {
			t.Fatalf("n=%d: encoded %d bytes, ActiveEncodedSize says %d", n, len(enc), m.ActiveEncodedSize())
		}
		if first == nil {
			first = enc
		} else if len(enc) != len(first) {
			t.Fatalf("n=%d: sparse encoding is %d bytes, n=%d was %d — size must not grow with idle peers",
				n, len(enc), sizes[0], len(first))
		}
	}
	// 3 active indices: u32 count + 3 ids + 3x3 submatrix.
	if want := 4 + 3*4 + 9*8; len(first) != want {
		t.Fatalf("sparse encoding is %d bytes, want %d", len(first), want)
	}
}
