// Command fixture is the program the reachability check walks from. It
// names lib.Unused only in this comment, which is not a use.
package main

import (
	"fmt"

	"fixture"
	"fixture/internal/lib"
)

func main() { fmt.Println(fixture.Reached(), lib.NewBox().Get(), lib.ModeA) }
