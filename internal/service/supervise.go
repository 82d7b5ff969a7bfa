package service

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// PanicError is what the supervisor converts a panicking job attempt
// into: the recovered value plus the goroutine stack captured at the
// panic site. A panic in an evaluator — on the search goroutine or on one
// of the search's evaluation pool goroutines, which hand it to the search
// goroutine once they have stopped — or in any hook running on the search
// goroutine fails the attempt, and with retries left triggers a
// checkpoint-backed retry, instead of killing the whole process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// maxJobRetries caps Spec.MaxRetries: a job that crashed 17 times in a
// row is not going to be saved by an 18th attempt, and unbounded retry
// of a deterministic panic is a worker-pool denial of service.
const maxJobRetries = 16

// Default retry backoff window. The first retry waits ~RetryBaseDelay,
// each further retry doubles it, capped at RetryMaxDelay, with
// multiplicative jitter in [0.5,1.0) so a batch of jobs felled by one
// shared cause does not retry in lockstep.
const (
	DefaultRetryBaseDelay = 500 * time.Millisecond
	DefaultRetryMaxDelay  = 15 * time.Second
)

// retryDelay computes the backoff before retry number `retry` (1-based):
// capped exponential with jitter. The jitter source is the global
// math/rand — scheduling noise, deliberately outside the search's
// deterministic RNG; results are bit-identical regardless of when a
// retry actually starts.
func retryDelay(retry int, base, max time.Duration) time.Duration {
	if retry < 1 {
		retry = 1
	}
	d := base << (retry - 1)
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	return time.Duration(float64(d) * (0.5 + 0.5*rand.Float64()))
}

// errJobDeadline is the cancellation cause of a job whose
// deadline_seconds elapsed; runJob maps it to StatusTimedOut.
var errJobDeadline = errors.New("service: job deadline exceeded")
