// Package sub calls the fixture facade package from a directory nested
// inside the facade's own.
package sub

import "example.com/facade"

// Use calls facade.Called.
func Use() int { return facade.Called() }
