package lib

import "testing"

func TestOracle(t *testing.T) {
	if Oracle() != OneTest() {
		t.Fatal("mismatch")
	}
}
