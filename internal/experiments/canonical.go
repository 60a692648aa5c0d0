package experiments

import "fmt"

// Canonical result-cache keys for the serving layer. A key must encode
// everything the rendered bytes depend on — section identity, repetition
// count, root seed, output format — and nothing else: worker counts and
// scheduling are deliberately absent because the runner renders
// byte-identical output for any pool size, which is precisely what makes
// cached section output safe to share between requests.

// CacheKeyVersion names the canonical key schema. It is the "v1" prefix
// every key below carries, surfaced as a constant so the serving layer can
// advertise it (GET /v1/version) and a client that keeps responses can
// tell when its stored keys stop meaning the same thing. Bump it whenever
// the meaning of an existing key changes (renamed sections, reinterpreted
// fields); purely additive key components do not require a bump because
// they cannot alias.
const CacheKeyVersion = "v1"

// SectionKey is the canonical cache key for rendering the named section
// at the given repetition count, root seed and output format ("text" or
// "json").
func SectionKey(name string, reps int, seed int64, format string) string {
	return fmt.Sprintf("v1/section|%s|reps=%d|seed=%d|format=%s", name, reps, seed, format)
}

// SectionKeyTrace is SectionKey for a run that replays a recorded trace:
// the trace's content hash joins the key because the rendered bytes now
// depend on the replayed stream, and two different traces must never share
// a cache entry. The hash is of the canonical encoding, so it identifies
// the stream itself, not the upload that carried it.
func SectionKeyTrace(name string, reps int, seed int64, format string, traceHash uint64) string {
	return fmt.Sprintf("%s|trace=%016x", SectionKey(name, reps, seed, format), traceHash)
}

// ReportKey is the canonical cache key for the full paper-vs-measured
// comparison report.
func ReportKey(reps int, full bool, seed int64) string {
	return fmt.Sprintf("v1/report|reps=%d|full=%t|seed=%d", reps, full, seed)
}
