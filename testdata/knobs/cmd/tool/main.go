package main

import (
	"encoding/json"
	"fmt"
	"io"

	"knobs/internal/lib"
)

func main() {
	a := lib.Config{Ways: 4, Zero: 0, Sets: 64, Limit: 1}.Defaults()
	b := lib.Config{Ways: 4, Zero: 0, Limit: 2, Burst: 2}.Defaults()
	st := lib.State{Saved: 1}
	if err := json.Unmarshal([]byte(`{"Saved":2}`), &st); err != nil {
		panic(err)
	}
	s := lib.New("x", -1, nil)
	var w io.Writer = s
	s.Write(nil)
	f := lib.Apply
	fmt.Println(a, b, st, s.Serve(false), w, f(1), lib.Apply(3), lib.Log(1),
		lib.Tuned(1), lib.Scale(1), lib.Scale(2))
}
