package dsm

// Snapshot returns a copy of the requested view's contents (the causal view
// when causalView is set), so a test can inspect a view without a read's side
// effects: a read raises the observation fence, which a later causal read then
// waits on. Cells exist only for locations some write or apply touched; a
// location the selected view never received reads as zero.
func (n *Node) Snapshot(causalView bool) map[string]int64 {
	out := make(map[string]int64)
	n.cells.Range(func(loc string, c *cell) {
		if causalView {
			out[loc] = c.causal.Load()
		} else {
			out[loc] = c.pram.Load()
		}
	})
	return out
}
