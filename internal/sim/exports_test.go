package sim

import (
	"path/filepath"
	"strings"
	"testing"

	"herald/internal/exportgate"
)

// TestExportsHaveCallers is the dead-export gate: every exported
// top-level name of this package must be named by non-test code outside
// it — anywhere in the repository, the benchmark module included — or
// appear in the signature, fields or methods of a name that is. An
// export that fails both is dead API: delete it or unexport it.
func TestExportsHaveCallers(t *testing.T) {
	dead, err := exportgate.Dead(".", "herald/internal/sim", filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		t.Errorf("exported names without a non-test caller outside the package: %s", strings.Join(dead, ", "))
	}
}
