package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	v := New(4)
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4", v.Len())
	}
	for i := 0; i < 4; i++ {
		if v.Get(i) != 0 {
			t.Errorf("component %d = %d, want 0", i, v.Get(i))
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	v := VC{1, 2, 3}
	c := v.Clone()
	c.Set(0, 2)
	if v[0] != 1 {
		t.Errorf("Clone aliases original: %v", v)
	}
	if got := c[0]; got != 2 {
		t.Errorf("clone component = %d, want 2", got)
	}
}

func TestCloneNil(t *testing.T) {
	var v VC
	if c := v.Clone(); c != nil {
		t.Errorf("Clone(nil) = %v, want nil", c)
	}
}

func TestCompareTable(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want Ordering
	}{
		{"equal empty", VC{}, VC{}, Equal},
		{"equal", VC{1, 2}, VC{1, 2}, Equal},
		{"before", VC{1, 2}, VC{1, 3}, Before},
		{"before all", VC{0, 0}, VC{1, 1}, Before},
		{"after", VC{2, 2}, VC{1, 2}, After},
		{"concurrent", VC{1, 0}, VC{0, 1}, Concurrent},
		{"length mismatch", VC{1}, VC{1, 0}, Concurrent},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	a, b := VC{1, 5, 2}, VC{2, 5, 2}
	if a.Compare(b) != Before || b.Compare(a) != After {
		t.Errorf("antisymmetry violated: %v vs %v", a.Compare(b), b.Compare(a))
	}
}

func TestHappensBefore(t *testing.T) {
	if !(VC{0, 1}).HappensBefore(VC{1, 1}) {
		t.Error("expected happens-before")
	}
	if (VC{1, 1}).HappensBefore(VC{1, 1}) {
		t.Error("equal clocks must not happen-before")
	}
}

func TestDominates(t *testing.T) {
	if !(VC{1, 1}).Dominates(VC{1, 1}) {
		t.Error("clock must dominate itself")
	}
	if !(VC{2, 1}).Dominates(VC{1, 1}) {
		t.Error("strictly larger clock must dominate")
	}
	if (VC{2, 0}).Dominates(VC{1, 1}) {
		t.Error("concurrent clock must not dominate")
	}
}

func TestMerge(t *testing.T) {
	a, b := VC{1, 5, 0}, VC{3, 2, 0}
	a.Merge(b)
	want := VC{3, 5, 0}
	if a.Compare(want) != Equal {
		t.Errorf("Merge = %v, want %v", a, want)
	}
}

func TestDeliverableAfter(t *testing.T) {
	tests := []struct {
		name  string
		state VC
		ts    VC
		from  int
		want  bool
	}{
		{"next in sequence", VC{0, 0}, VC{1, 0}, 0, true},
		{"gap from sender", VC{0, 0}, VC{2, 0}, 0, false},
		{"duplicate", VC{1, 0}, VC{1, 0}, 0, false},
		{"missing dependency", VC{0, 0}, VC{1, 1}, 0, false},
		{"dependency satisfied", VC{0, 1}, VC{1, 1}, 0, true},
		{"length mismatch", VC{0}, VC{1, 0}, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DeliverableAfter(tt.state, tt.ts, tt.from); got != tt.want {
				t.Errorf("DeliverableAfter(%v, %v, %d) = %v, want %v",
					tt.state, tt.ts, tt.from, got, tt.want)
			}
		})
	}
}

func TestOrderingString(t *testing.T) {
	for o, want := range map[Ordering]string{
		Equal: "equal", Before: "before", After: "after", Concurrent: "concurrent",
	} {
		if got := o.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", o, got, want)
		}
	}
	if got := Ordering(99).String(); got != "ordering(99)" {
		t.Errorf("unknown ordering String = %q", got)
	}
}

func TestString(t *testing.T) {
	if got := (VC{1, 0, 7}).String(); got != "[1 0 7]" {
		t.Errorf("String = %q, want %q", got, "[1 0 7]")
	}
}

// randomVC builds a quick-check generator for small clocks.
func randomVC(r *rand.Rand, n int) VC {
	v := New(n)
	for i := range v {
		v[i] = uint64(r.Intn(5))
	}
	return v
}

func TestQuickCompareConsistency(t *testing.T) {
	// Compare must be antisymmetric, and Merge must dominate both inputs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVC(r, 4), randomVC(r, 4)
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Equal:
			if ba != Equal {
				return false
			}
		case Before:
			if ba != After {
				return false
			}
		case After:
			if ba != Before {
				return false
			}
		case Concurrent:
			if ba != Concurrent {
				return false
			}
		}
		m := a.Clone()
		m.Merge(b)
		return m.Dominates(a) && m.Dominates(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomVC(r, 3), randomVC(r, 3), randomVC(r, 3)
		if a.Compare(b) == Before && b.Compare(c) == Before {
			return a.Compare(c) == Before
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompare(b *testing.B) {
	x := VC{1, 2, 3, 4, 5, 6, 7, 8}
	y := VC{1, 2, 3, 4, 5, 6, 7, 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Compare(y)
	}
}

func BenchmarkMerge(b *testing.B) {
	x := VC{1, 2, 3, 4, 5, 6, 7, 8}
	y := VC{8, 7, 6, 5, 4, 3, 2, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Merge(y)
	}
}

func BenchmarkDeliverableAfter(b *testing.B) {
	state := VC{5, 5, 5, 5}
	ts := VC{6, 5, 5, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DeliverableAfter(state, ts, 0)
	}
}
