// Package lib is the fixture's internal package for the exported-func
// and exported-method guards in deadcode_test.go: the func guard must
// flag Unused and Recursive and nothing else, the method guard T.Method
// and nothing else.
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

// T carries one exported method of each kind for the method guard; the
// func guard checks none of them.
type T struct{}

// Method is never called.
func (T) Method() int { return 4 }

// Called is selected by the fixture's root package.
func (T) Called() int { return 5 }

// Sizer names Size, so T's Size may be called through it although
// nothing selects it.
type Sizer interface{ Size() int }

// Size satisfies Sizer.
func (T) Size() int { return 6 }
