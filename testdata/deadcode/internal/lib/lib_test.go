package lib_test

import (
	"testing"

	"fixture/internal/lib"
)

func TestUsedByTest(t *testing.T) {
	if lib.UsedByTest() != 2 {
		t.Fatal("UsedByTest")
	}
}

func BenchmarkNothing(b *testing.B) {}

func FuzzNothing(f *testing.F) {}

func Example() {}
