package app

import (
	"testing"

	"fixture/internal/lib"
)

func TestOracle(t *testing.T) {
	if lib.Oracle() != Run() {
		t.Fatal("mismatch")
	}
}
