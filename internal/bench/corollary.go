package bench

import (
	"fmt"

	"mixedmem/internal/check"
	"mixedmem/internal/core"
)

// CorollaryResult is experiment E9: property-test outcomes for Theorem 1's
// corollaries on randomly generated programs executed on the real runtime.
type CorollaryResult struct {
	Seeds int
	// Entry counts entry-consistent runs (Corollary 1) whose recorded
	// histories were mixed consistent, entry consistent, and sequentially
	// consistent.
	EntryPassed int
	// Phased counts PRAM-consistent phased runs (Corollary 2) that passed
	// all three checks.
	PhasedPassed int
}

// String renders the result.
func (r CorollaryResult) String() string {
	return fmt.Sprintf("corollary 1: %d/%d SC, corollary 2: %d/%d SC",
		r.EntryPassed, r.Seeds, r.PhasedPassed, r.Seeds)
}

// RunCorollaries executes `seeds` random entry-consistent programs and
// `seeds` random PRAM-consistent phased programs on the recording runtime
// and replays each trace through the checker, verifying that the corollary's
// promise — sequential consistency — holds.
func RunCorollaries(seeds int) (CorollaryResult, error) {
	out := CorollaryResult{Seeds: seeds}
	for s := 0; s < seeds; s++ {
		h, locks, err := core.RunRandomEntryConsistent(core.RandomEntryConsistentConfig{Seed: int64(s)})
		if err != nil {
			return out, fmt.Errorf("corollary 1 seed %d: %w", s, err)
		}
		a, err := h.Analyze()
		if err != nil {
			return out, fmt.Errorf("corollary 1 seed %d: analyze: %w", s, err)
		}
		if len(check.Mixed(a)) == 0 && len(check.EntryConsistent(h, locks)) == 0 {
			if ok, _, err := check.SequentiallyConsistent(a); err == nil && ok {
				out.EntryPassed++
			}
		}
	}
	for s := 0; s < seeds; s++ {
		h, err := core.RunRandomPhased(core.RandomPhasedConfig{Seed: int64(s)})
		if err != nil {
			return out, fmt.Errorf("corollary 2 seed %d: %w", s, err)
		}
		a, err := h.Analyze()
		if err != nil {
			return out, fmt.Errorf("corollary 2 seed %d: analyze: %w", s, err)
		}
		if len(check.Mixed(a)) == 0 && len(check.PRAMConsistent(h)) == 0 {
			if ok, _, err := check.SequentiallyConsistent(a); err == nil && ok {
				out.PhasedPassed++
			}
		}
	}
	return out, nil
}
