package loctab

import "strings"

// ArenaChunk is the size of the chunks a NameArena carves names from.
const ArenaChunk = 4 << 10

// NameArena copies location names into chunks of ArenaChunk bytes, so that a
// stream of names costs one allocation per chunk instead of one per name: a
// tcp connection's decoded definitions (internal/dsm) and a session strand's
// visibility-flag names (internal/apps).
//
// It is append-only. A carved name's bytes are never written again, so the
// name is an ordinary immutable string that may be handed to other goroutines
// and kept as a table key. The arena references only its current chunk; a
// used-up chunk lives while any name carved from it does, and a name longer
// than a chunk is its own allocation. When a name does not fit in what is left
// of the current chunk, the arena starts a new one, so the tail it abandons is
// shorter than that name: an arena keeps alive at most twice the bytes of the
// names it carved, plus its current chunk.
//
// The zero NameArena is ready to use. It belongs to one goroutine, and must not
// be copied once used.
type NameArena struct {
	b strings.Builder // the current chunk: its capacity is never exceeded
}

// Carve returns a string with name's bytes.
func (a *NameArena) Carve(name []byte) string {
	switch {
	case len(name) == 0:
		return ""
	case len(name) > ArenaChunk:
		return string(name)
	case a.b.Cap()-a.b.Len() < len(name):
		a.b = strings.Builder{}
		a.b.Grow(ArenaChunk)
	}
	from := a.b.Len()
	a.b.Write(name)
	return a.b.String()[from:]
}

// Len returns how many bytes of the current chunk are carved.
func (a *NameArena) Len() int { return a.b.Len() }
