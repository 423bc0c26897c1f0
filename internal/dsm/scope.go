package dsm

import (
	"fmt"
	"sort"
)

// ScopeMap is the per-location reader registration that drives scoped
// placement — Section 6's closing remark that "the overhead of broadcasting
// messages for each update ... may be avoided by making optimizations based
// on the patterns of accesses to shared variables."
//
// Readers[loc] lists every process that reads loc; updates to loc are sent
// only to those processes (plus the writer's own replica, which always
// applies locally). CausalReaders[loc] is the subset that performs causal
// reads of loc: their copies arrive with full causal-dependency metadata and
// enter the causal view, while the remaining (PRAM-registered) readers get
// the timestamp-elided fast path — a per-location analogue of the global
// PRAMOnly mode.
//
// A location absent from Readers falls back to a full broadcast with causal
// metadata (the safe default), so a scope map only needs to name the
// locations whose traffic it wants to cut.
//
// The registration is a soundness contract, not just routing: a process must
// not read a location it is not registered for (it would see the zero
// value), and a PRAM-registered reader's reads of that location must need
// only PRAM guarantees — no later causal read may depend on what those reads
// observed, exactly as the PRAMOnly program class promises globally
// (Corollary 2).
type ScopeMap struct {
	// Readers maps a location to every process that reads it.
	Readers map[string][]int
	// CausalReaders maps a location to the subset of its readers that
	// perform causal reads of it. Every entry must also appear in
	// Readers[loc]; Validate rejects a causal reader missing from its
	// location's reader scope.
	CausalReaders map[string][]int
}

// Validate checks the map against a system of n processes. pramOnly is the
// node's global PRAMOnly flag: a PRAMOnly node maintains no causal view, so
// registering causal readers with it is a configuration error.
func (s *ScopeMap) Validate(n int, pramOnly bool) error {
	for loc, readers := range s.Readers {
		for _, p := range readers {
			if p < 0 || p >= n {
				return fmt.Errorf("dsm: scope: reader %d of %q out of range [0,%d)", p, loc, n)
			}
		}
	}
	// registeredAt[p] == k says p is a reader of the k-th location checked;
	// the readers are in range by now.
	registeredAt := make([]int, n)
	k := 0
	for loc, causal := range s.CausalReaders {
		if len(causal) == 0 {
			continue
		}
		if pramOnly {
			return fmt.Errorf("dsm: scope: causal readers registered for %q but the node is PRAMOnly (no causal view to deliver to)", loc)
		}
		k++
		for _, p := range s.Readers[loc] {
			registeredAt[p] = k
		}
		for _, p := range causal {
			if p < 0 || p >= n {
				return fmt.Errorf("dsm: scope: causal reader %d of %q out of range [0,%d)", p, loc, n)
			}
			if registeredAt[p] != k {
				return fmt.Errorf("dsm: scope: causal reader %d of %q is not in the location's reader scope", p, loc)
			}
		}
	}
	return nil
}

// scopeEntry is a location's reader lists as one node sees them: the
// causal-registered readers and the PRAM-registered ones (elided). Both
// exclude the node itself and are deduplicated and sorted. What each list's
// copies are stamped with is Node.sendObligation's decision.
type scopeEntry struct {
	causal []int
	elided []int
}

// compile turns the map, validated for n processes, into per-location reader
// lists for node id. It is config-time code, but a placement can register
// thousands of locations, so it allocates per call, not per location: one
// scratch of marks and one array every entry's lists are cut from (read-only,
// each capped at its length).
func (s *ScopeMap) compile(id, n int) map[string]scopeEntry {
	targets := make(map[string]scopeEntry, len(s.Readers))
	total := 0
	for _, readers := range s.Readers {
		total += len(readers)
	}
	lists := make([]int, 0, total)
	// For the k-th location compiled, causalAt[p] == k says p is one of its
	// causal readers and listedAt[p] == k that p is already in its lists.
	causalAt, listedAt := make([]int, n), make([]int, n)
	// cut appends the location's readers whose causal registration is causal,
	// deduplicated and sorted, and returns them (nil if there are none).
	cut := func(readers []int, k int, causal bool) []int {
		start := len(lists)
		for _, p := range readers {
			if p == id || listedAt[p] == k || (causalAt[p] == k) != causal {
				continue
			}
			listedAt[p] = k
			lists = append(lists, p)
		}
		if len(lists) == start {
			return nil
		}
		out := lists[start:len(lists):len(lists)]
		sort.Ints(out)
		return out
	}
	k := 0
	for loc, readers := range s.Readers {
		k++
		for _, p := range s.CausalReaders[loc] {
			causalAt[p] = k
		}
		targets[loc] = scopeEntry{causal: cut(readers, k, true), elided: cut(readers, k, false)}
	}
	return targets
}
