// Package lib holds one red and one green case per rule of the dead-code
// check; the names say which is which.
package lib

// Sizer is satisfied by Live and by Dead.
type Sizer interface{ Len() int }

// Live is built by the program, so its Len, which only the interface
// reaches, is live too.
type Live struct{}

// NewLive returns a Live.
func NewLive() Live { return Live{} }

// Len satisfies Sizer.
func (Live) Len() int { return 1 }

// Dead is built only by this package's test, so it and its Len are dead.
type Dead struct{}

// Len satisfies Sizer.
func (Dead) Len() int { return 2 }

func testOnlyHelper() int { return 3 }

func chainCaller() int { return chainCallee() }

func chainCallee() int { return 4 }

// UsedByOtherTest is used only by another package's test.
func UsedByOtherTest() int { return 1 }

// Theorem is allowlisted: a root, so what it calls is live.
func Theorem() int { return theoremHelper() }

func theoremHelper() int { return 5 }

// Config is a knob set: Set is set by the program, TestOnly only by a test.
type Config struct {
	Set      int
	TestOnly int
}

// InnerConfig is set only by copying Config's knobs: a copy of a knob that
// is set is set, a copy of a dead knob is dead.
type InnerConfig struct {
	FromSet      int
	FromTestOnly int
}

// Inner copies c's knobs into an InnerConfig.
func (c Config) Inner() InnerConfig {
	return InnerConfig{FromSet: c.Set, FromTestOnly: c.TestOnly}
}
