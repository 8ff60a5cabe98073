package exportgate

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestDeadSeesNestedPackages runs Dead on a package whose only caller
// lives in a subdirectory of the package's own: the subdirectory is
// another package, so its calls count and only the uncalled name is
// dead.
func TestDeadSeesNestedPackages(t *testing.T) {
	dir := filepath.Join("testdata", "facade")
	dead, err := Dead(dir, "example.com/facade", dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"Uncalled"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("Dead = %v, want %v", dead, want)
	}
	if _, err := Dead(dir, "example.com/facade", dir, "Uncalled"); err != nil {
		t.Errorf("keeping an exported name: %v", err)
	}
	if _, err := Dead(dir, "example.com/facade", dir, "Gone"); err == nil {
		t.Error("keeping a name the package does not export passed")
	}
}
