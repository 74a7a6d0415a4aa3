// Command mod is the program the deadcode test checks.
package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"example.com/mod/internal/lib"
)

func main() {
	lib.Used()
	var s lib.Shape = lib.Square{Side: 2}
	var _ lib.Sizer
	sort.Sort(lib.ByLen{"bb", "a"})
	b, _ := json.Marshal(lib.J{})
	fmt.Println(s.Area(), lib.Box[int]{}.Get(), lib.T{}, string(b))
}
