// Package search is a miniature stand-in for the real internal/search: one
// module sentinel for the sentinelis tests.
package search

import "errors"

// ErrStaleEngine mirrors the real module sentinel of the same name.
var ErrStaleEngine = errors.New("engine snapshot is stale")
