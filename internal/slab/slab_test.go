package slab

import "testing"

func TestOneRefillsPerSize(t *testing.T) {
	var s Of[int]
	first := s.One()
	for i := 1; i < Size; i++ {
		s.One()
	}
	if len(s) != 0 {
		t.Fatalf("%d elements left after %d carves", len(s), Size)
	}
	if p := s.One(); p == first || len(s) != Size-1 {
		t.Fatalf("carve %d did not refill: %d left", Size+1, len(s))
	}
}

func TestRunIsCappedAndZeroed(t *testing.T) {
	var s Of[uint64]
	a := s.Run(3)
	if len(a) != 3 || cap(a) != 3 || len(s) != Size*3-3 {
		t.Fatalf("run len %d cap %d, %d left", len(a), cap(a), len(s))
	}
	_ = append(a, 1) // must not write into the next run
	if b := s.Run(3); b[0] != 0 {
		t.Fatalf("append ran into the next run: %v", b)
	}
	if wide := s.Run(len(s) + 1); len(s) != Size*len(wide)-len(wide) {
		t.Fatalf("a run wider than the rest refills Size·n: %d left", len(s))
	}
}

func TestRoomRoundsAndBounds(t *testing.T) {
	var s Of[int]
	r := s.Room(5, 16, 64)
	if len(r) != 0 || cap(r) != 16 || len(s) != 48 {
		t.Fatalf("room len %d cap %d, %d left; want 0, 16, 48", len(r), cap(r), len(s))
	}
	if big := s.Room(65, 16, 64); cap(big) != 80 || len(s) != 48 {
		t.Fatalf("room past the slab size: cap %d, %d left; want 80 of its own, 48", cap(big), len(s))
	}
	s.Room(48, 16, 64)
	if s.Room(1, 16, 64); len(s) != 48 {
		t.Fatalf("an exhausted slab refills with size elements: %d left, want 48", len(s))
	}
}
