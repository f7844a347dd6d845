package core

import (
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/drivertest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// checkGolden compares v's %v text against testdata/<name>.golden, which
// pins a quick study's exact result: a refactor of the run harness must
// leave every figure value where it was.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	drivertest.Golden(t, filepath.Join("testdata", name+".golden"), []byte(fmt.Sprintf("%v\n", v)), *updateGolden)
}
