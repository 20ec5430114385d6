// Package app is a second root outside internal/.
package app

import "fixture/internal/lib"

// Run is reached as a root: every declaration outside internal/ is.
func Run() int { return lib.Used().M() }
