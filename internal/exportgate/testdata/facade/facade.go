// Package facade is a fixture for exportgate's tests: a package whose
// only caller is a package nested in its own directory.
package facade

// Called is named by the subpackage.
func Called() int { return 1 }

// Uncalled is named by nothing.
func Uncalled() int { return 2 }
