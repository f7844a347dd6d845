package main

import (
	"encoding/json"
	"flag"
	"fmt"

	"deadapi/internal/lib"
)

func main() {
	var lvl lib.Level
	flag.Var(&lvl, "level", "verbosity")
	flag.Parse()
	var c lib.Counter
	c.Add()
	var st lib.State
	if err := json.Unmarshal([]byte(`{"Saved":1}`), &st); err != nil {
		panic(err)
	}
	out, err := json.Marshal(lib.Report{Total: c.Value()})
	if err != nil {
		panic(err)
	}
	fmt.Println(lib.Run(lib.Config{Name: "x"}), st.Saved, string(out), &lib.Pool{})
}
