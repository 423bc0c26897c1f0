// Command tool is the fixture's only program: what it reaches is live.
package main

import (
	"fmt"

	"deadfix/internal/lib"
)

func main() {
	var s lib.Sizer = lib.NewLive()
	cfg := lib.Config{Set: 1}
	fmt.Println(s.Len(), cfg.Inner(), lib.Total([]lib.Tally{{N: 1}}))
}
