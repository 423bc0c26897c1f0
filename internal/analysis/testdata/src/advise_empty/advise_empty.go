// Fixture for advice over no access site: every access names its location at
// run time, as the paper's programs index their arrays, so the engine has no
// constant location to advise on and the program label is unknown, not the
// lattice bottom.
package adviseemptyfix

import "mixedmem/internal/core"

// column reads a column through a computed name under a read lock, the shape
// of Figure 5.
func column(p *core.Proc, name string) int64 {
	p.RLock("col")
	v := p.ReadCausal(name)
	p.RUnlock("col")
	return v
}
