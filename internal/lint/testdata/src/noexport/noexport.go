// Package noexport imports a path the go command cannot build, so there
// is no export data to read for it.
package noexport

import (
	"fmt"

	"nosuchpkg/missing"
)

func Use() { fmt.Println(missing.Value) }
