// Package lib is the fixture's internal package for the exported-func
// guard in deadcode_test.go: Unused and Recursive must be flagged and
// nothing else.
package lib

// Used is called by the fixture's root package, through an import alias.
func Used() int { return helper() }

// UsedInPackage is called only from inside this package.
func UsedInPackage() int { return 1 }

func helper() int { return UsedInPackage() }

// UsedByTest is called only by the external test package.
func UsedByTest() int { return 2 }

// Unused has no caller.
func Unused() int { return 3 }

// Recursive has no caller but itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// T carries an exported method nothing calls; methods are not checked.
type T struct{}

// Method is never called.
func (T) Method() int { return 4 }
