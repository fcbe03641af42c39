// Package deadcode is the fixture for the dead-code guard in
// deadcode_test.go: the four unused* declarations must be flagged and
// nothing else. Its internal/lib package is the exported-func fixture.
package deadcode

import fl "fixture/internal/lib"

// Exported uses every used* name.
func Exported() int {
	unusedVar := usedHelper() // a local, not the package-level var
	var t usedType
	return unusedVar + usedConst + t.unusedHelper + len(usedVar) + fl.Used() + fl.T{}.Called()
}

func usedHelper() int { return 1 }

var usedVar = []int{}

// usedType has a field sharing a dead helper's name.
type usedType struct{ unusedHelper int }

// unusedConst as a method name is not a use of the constant.
func (usedType) unusedConst() int { return 0 }

const usedConst = 1

var testOnly = 2

func unusedHelper() int { return unusedHelper() }

type unusedType *unusedType

var unusedVar = 3

const unusedConst = 4
