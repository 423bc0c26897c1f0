package apps

import (
	"strconv"
	"strings"
)

// nameTable formats a table of location names into one string, so that the
// table costs one allocation however many names it holds: grow b by an upper
// bound on their bytes before the first name. A name cut from it stays valid
// either way.
type nameTable struct {
	b   strings.Builder
	num [20]byte
}

// name appends prefix+i, then sep+j when sep is not empty, and returns what it
// appended.
func (t *nameTable) name(prefix string, i int, sep string, j int) string {
	from := t.b.Len()
	t.b.WriteString(prefix)
	t.b.Write(strconv.AppendInt(t.num[:0], int64(i), 10))
	if sep != "" {
		t.b.WriteString(sep)
		t.b.Write(strconv.AppendInt(t.num[:0], int64(j), 10))
	}
	return t.b.String()[from:]
}
