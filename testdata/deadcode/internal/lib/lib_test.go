package lib

import "testing"

func TestOwn(t *testing.T) {
	var s Sizer = Dead{}
	cfg := Config{TestOnly: 1}
	if s.Len()+testOnlyHelper()+Theorem()+cfg.TestOnly == 0 {
		t.Fatal("unreachable")
	}
}
