package serve

import (
	"context"
	"time"
)

// span is one HTTP request's trace record: the request ID (honored
// from the X-Request-ID header or minted at entry), what the request
// addressed, and per-stage timings — decode (request body to typed
// request), queue (enqueue to batch cut), forward (the batch's engine
// phase), and encode (typed response to response body). The logging
// middleware renders it as one structured log line per request, which
// is what makes a client-reported request ID greppable into the exact
// server-side stage breakdown of that request. Only the request's own
// handler goroutine touches it.
type span struct {
	id    string
	start time.Time

	model string // infer requests
	db    string // capture requests
	wire  string // json | binary
	dtype string // f64 | f32
	rows  int

	decode time.Duration
	encode time.Duration

	// Queue and forward are folded in per range as the request's
	// ranges complete; ranges of one request keep the maximum (the
	// stage as the caller experienced it).
	queue   time.Duration
	forward time.Duration
}

// addRange folds one served range's queue/forward durations into the
// span.
func (sp *span) addRange(queued, forward time.Duration) {
	sp.queue = max(sp.queue, queued)
	sp.forward = max(sp.forward, forward)
}

type spanKey struct{}

// withSpan attaches the request's span to its context.
func withSpan(ctx context.Context, sp *span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// spanFrom returns the request's span, nil outside the handler chain.
func spanFrom(ctx context.Context) *span {
	sp, _ := ctx.Value(spanKey{}).(*span)
	return sp
}

// requestIDFrom returns the request's trace ID, "" outside the
// handler chain — the hook writeErr uses to stamp error bodies.
func requestIDFrom(ctx context.Context) string {
	if sp := spanFrom(ctx); sp != nil {
		return sp.id
	}
	return ""
}
