package main

import (
	"testing"

	"deadfix/internal/lib"
)

// Another package's test keeps lib.UsedByOtherTest alive.
func TestOther(t *testing.T) {
	if lib.UsedByOtherTest() != 1 {
		t.Fatal("UsedByOtherTest")
	}
}
