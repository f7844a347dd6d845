package lib

import "testing"

func TestLib(t *testing.T) {
	var c Counter
	c.Reset()
	f := &Fake{}
	if f.Next()+TestOnly()+helper() != 5 {
		t.Fatal("bad")
	}
}
