package exportgate

import (
	"path/filepath"
	"reflect"
	"strings"
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

// TestInternalExportsHaveCallers is the dead-export gate of the
// internal packages whose exports all have callers: every exported
// top-level name must be named by non-test code outside its package,
// anywhere in the repository, the benchmark module included, or be
// kept below with its reason. The packages not listed still export
// names only tests call; shard and sim gate themselves.
func TestInternalExportsHaveCallers(t *testing.T) {
	for _, tc := range []struct {
		pkg  string
		keep []string
	}{
		{pkg: "des"},
		{pkg: "ndjson", keep: []string{
			"Frame", // frames the record lines shard and serve tests write by hand
		}},
		{pkg: "prof"},
		{pkg: "report"},
		{pkg: "sensitivity"},
		{pkg: "serve", keep: []string{
			"SweepRequest", "SweepResponse", // the /v1/sweep wire types
		}},
		{pkg: "sweep"},
		{pkg: "xrand"},
	} {
		dead, err := Dead(filepath.Join("..", tc.pkg), "herald/internal/"+tc.pkg, filepath.Join("..", ".."), tc.keep...)
		if err != nil {
			t.Fatal(err)
		}
		if len(dead) > 0 {
			t.Errorf("%s: exported names without a non-test caller outside the package: %s", tc.pkg, strings.Join(dead, ", "))
		}
	}
}
