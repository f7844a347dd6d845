package main

import (
	"fmt"

	"deadapi/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly(), lib.NewMachine().Config().Name) }
