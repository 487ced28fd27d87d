package persist

import (
	"testing"

	"coverage/internal/engine"
)

// Bridges for the external persist_test package (which can import the
// registry without a cycle): the on-disk snapshot name and the shared
// engine fixtures/assertions.

// SnapshotNameForTest is the on-disk name of generation gen's snapshot.
func SnapshotNameForTest(gen uint64) string { return snapshotName(gen) }

// MutatedEngineForTest builds the standard randomized-history engine.
func MutatedEngineForTest(t testing.TB, seed int64, ops int) *engine.Engine {
	return mutatedEngine(t, seed, ops)
}

// AssertEquivalentForTest checks two engines answer every coverage and
// MUP query identically.
func AssertEquivalentForTest(t testing.TB, want, got *engine.Engine) {
	assertEquivalent(t, want, got)
}
