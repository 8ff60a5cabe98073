package herald

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"herald/internal/exportgate"
)

// TestExportsHaveCallers is the dead-export gate for the facade: every
// exported top-level name must be named by non-test code outside the
// package — the commands and examples below this directory, the
// benchmark module included — or by README.md as herald.Name, or
// appear in the signature, fields or methods of a name that is. The
// README is the only keep list: a name no example calls stays only
// while the README documents it, and a README mention of a name the
// package does not export fails the gate.
func TestExportsHaveCallers(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, m := range regexp.MustCompile(`herald\.([A-Z]\w*)`).FindAllStringSubmatch(string(readme), -1) {
		keep = append(keep, m[1])
	}
	dead, err := exportgate.Dead(".", "herald", ".", keep...)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		t.Errorf("exported names without a non-test caller outside the package or a README mention: %s", strings.Join(dead, ", "))
	}
}
