package lib

import "testing"

func TestLib(t *testing.T) {
	seed := 2
	if New("y", 5, &seed).Serve(true) != 0 {
		t.Fatal("quiet serve")
	}
	_ = Config{Ways: 8, Zero: 1}
}
