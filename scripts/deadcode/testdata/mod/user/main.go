// Command user calls into the module it replaces, as perfbench does.
package main

import "example.com/mod/internal/lib"

func main() { lib.ForUser() }
