// Package lib holds one declaration of each kind the deadcode test checks.
package lib

// Used is called from main.
func Used() {}

// Unused is called by nothing.
func Unused() { helper() }

// helper is reached only through Unused.
func helper() {}

// ForUser is called only from the second module, which replaces this one.
func ForUser() {}

// T is passed to fmt.Println by main.
type T struct{}

// String is reached through fmt.Stringer.
func (T) String() string { return "t" }

// OnlyTest is called only from lib_test.go.
func (T) OnlyTest() {}

// Shape is an interface this module declares.
type Shape interface{ Area() int }

// Square satisfies Shape.
type Square struct{ Side int }

// Area is reached through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is a method no interface or caller names.
func (s Square) Perimeter() int { return 4 * s.Side }

// Sizer is an interface Square does not implement.
type Sizer interface {
	Size() int
	Name() string
}

// Size has the name and signature of a Sizer method, but Square is never
// a Sizer.
func (s Square) Size() int { return s.Side }

// Box is a generic type main instantiates.
type Box[V any] struct{ v V }

// Get is reached through Box[int].
func (b Box[V]) Get() V { return b.v }

// ByLen is passed to sort.Sort by main, which never names sort.Interface.
type ByLen []string

// Len, Less and Swap are reached through sort.Interface.
func (b ByLen) Len() int           { return len(b) }
func (b ByLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b ByLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// J is passed to json.Marshal by main.
type J struct{}

// MarshalJSON is reached through json.Marshaler, which encoding/json
// calls by reflection.
func (J) MarshalJSON() ([]byte, error) { return []byte("1"), nil }
