// Package fixture is the module's root package: each exported name is
// reached by a program or listed as public API.
package fixture

import "fixture/internal/lib"

// Reached is called by the program.
func Reached() int { return lib.Used().M() }

// Documented is reached by no program and listed as public API.
func Documented() int { return 1 }

// Undocumented is reached by no program and listed nowhere.
func Undocumented() int { return 2 }
