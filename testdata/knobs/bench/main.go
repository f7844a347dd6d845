package main

import (
	"fmt"

	"knobs/internal/lib"
)

func main() { fmt.Println(lib.Tuned(2)) }
