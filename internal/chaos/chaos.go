// Package chaos is the deterministic fault-injection layer of the
// per-query fault domain: it wraps the iterators built at operator and
// exchange boundaries (through the engine.IterWrapper hook exposed as
// rewrite.Options.Inject / parallel.Options.Inject) and makes them
// fail on purpose — an injected stream error, a panic, an artificial
// delay, or an external cancellation — at a seed-determined row of a
// seed-determined site.
//
// Everything is derived from Config.Seed: which sites fire, which fault
// they inject and at which row, via a splitmix64 mix of the seed, the
// site-name hash and a per-wrap sequence number. The same seed over the
// same plan shape replays the same faults, so a chaos-grid failure is
// reproducible from its seed alone.
//
// The injected faults honor the engine's iterator contracts: a fault
// iterator delivers an order-preserving prefix of its input (so
// CheckOrdered stays valid), delegates Close, and carries injected
// errors through Err per the error-carrying protocol. What the chaos
// grid then asserts is the fault domain's job: no panic escapes the
// query, no goroutine leaks, every injected fault surfaces exactly once
// through the root Err, and a stream that ends without error is the
// complete result.
package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// ErrInjected is the sentinel under every injected stream error;
// errors.Is(err, ErrInjected) identifies a chaos fault in Rows.Err.
var ErrInjected = errors.New("chaos: injected fault")

// Fault modes, chosen per wrapped site from the seeded stream.
const (
	faultNone = iota
	faultErr
	faultPanic
	faultDelay
	faultCancel
)

// Config parameterizes an Injector. Rates are per wrapped site (not per
// row) and are evaluated in order err, panic, delay, cancel — their sum
// should stay <= 1.
type Config struct {
	// Seed determines every injection decision; same seed, same faults.
	Seed int64
	// ErrRate is the probability a wrapped site ends its stream early
	// with an ErrInjected error at a seed-determined row.
	ErrRate float64
	// PanicRate is the probability a wrapped site panics at a
	// seed-determined row (the containment boundaries must convert it
	// into a query error).
	PanicRate float64
	// DelayRate is the probability a wrapped site sleeps once for up to
	// MaxDelay at a seed-determined row — the latency/backpressure
	// chaos that shakes out teardown races without changing results.
	DelayRate float64
	// MaxDelay bounds the injected sleep; 0 selects 1ms.
	MaxDelay time.Duration
	// CancelRate is the probability a wrapped site invokes OnCancel at
	// a seed-determined row, simulating an external cancellation
	// mid-stream.
	CancelRate float64
	// OnCancel is invoked by cancel faults (typically the query
	// context's cancel function); nil disables cancel faults.
	OnCancel func()
}

// Injector derives per-site fault decisions from one Config. Safe for
// concurrent use: wrapped sites are created during plan build but their
// faults fire from fragment goroutines.
type Injector struct {
	cfg Config
	seq atomic.Int64
	// counters for test assertions: how many faults of each kind armed
	// (not all armed faults fire — a site may be torn down first).
	armedErrs    atomic.Int64
	armedPanics  atomic.Int64
	armedCancels atomic.Int64
	firedErrs    atomic.Int64
	firedPanics  atomic.Int64
}

// New returns an Injector for cfg.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// ArmedFaults reports how many wrapped sites were armed with a
// result-affecting fault (error, panic or cancel — delays never change
// results). Zero means the run must be byte-identical to an uninjected
// one.
func (inj *Injector) ArmedFaults() int64 {
	return inj.armedErrs.Load() + inj.armedPanics.Load() + inj.armedCancels.Load()
}

// FiredErrs reports how many injected stream errors actually fired.
func (inj *Injector) FiredErrs() int64 { return inj.firedErrs.Load() }

// FiredPanics reports how many injected panics actually fired.
func (inj *Injector) FiredPanics() int64 { return inj.firedPanics.Load() }

// splitmix64 is the standard 64-bit mixer: enough independence between
// (seed, site, seq) triples that fault placement looks random while
// staying a pure function of its inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func siteHash(site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// Wrapper returns the engine.IterWrapper form of the injector, the
// shape rewrite.Options.Inject and parallel.Options.Inject accept.
func (inj *Injector) Wrapper() engine.IterWrapper {
	return inj.Wrap
}

// Wrap decides this site's fault from the seeded stream and returns the
// fault-carrying iterator (or it unchanged when the site stays
// healthy). The fault row is decided upfront, in [0, 64): faults near
// the head of a stream exercise teardown with most of the pipeline
// still running, which is where the interesting races live.
func (inj *Injector) Wrap(site string, it engine.RowIter) engine.RowIter {
	seq := inj.seq.Add(1)
	h := splitmix64(uint64(inj.cfg.Seed) ^ splitmix64(siteHash(site)) ^ splitmix64(uint64(seq)))
	// Two independent uniforms from one mixed state: the fault choice
	// and the fault row.
	u := float64(h>>11) / float64(1<<53)
	mode := faultNone
	switch c := inj.cfg; {
	case u < c.ErrRate:
		mode = faultErr
	case u < c.ErrRate+c.PanicRate:
		mode = faultPanic
	case u < c.ErrRate+c.PanicRate+c.DelayRate:
		mode = faultDelay
	case u < c.ErrRate+c.PanicRate+c.DelayRate+c.CancelRate && c.OnCancel != nil:
		mode = faultCancel
	}
	if mode == faultNone {
		return it
	}
	faultRow := int64(splitmix64(h) % 64)
	switch mode {
	case faultErr:
		inj.armedErrs.Add(1)
	case faultPanic:
		inj.armedPanics.Add(1)
	case faultCancel:
		inj.armedCancels.Add(1)
	}
	return &faultIter{inj: inj, site: site, in: it, mode: mode, faultRow: faultRow,
		delay: time.Duration(splitmix64(h+1)%uint64(inj.cfg.MaxDelay)) + 1}
}

// faultIter injects one fault at faultRow rows into its input's stream.
// It preserves the input's row order (it only ever truncates) and
// carries injected errors through Err; a firing error fault truncates
// the batch at the fault row, so the error lands exactly after that
// many rows.
type faultIter struct {
	inj      *Injector
	site     string
	in       engine.RowIter
	mode     int
	faultRow int64
	delay    time.Duration
	n        int64
	err      error
	fired    bool
}

func (it *faultIter) Schema() tuple.Schema { return it.in.Schema() }

// fire triggers this site's fault; reports whether the stream ends.
func (it *faultIter) fire() bool {
	it.fired = true
	switch it.mode {
	case faultErr:
		it.inj.firedErrs.Add(1)
		it.err = fmt.Errorf("%w: site %s after %d rows", ErrInjected, it.site, it.n)
		return true
	case faultPanic:
		it.inj.firedPanics.Add(1)
		panic(fmt.Sprintf("chaos: injected panic at site %s after %d rows", it.site, it.n))
	case faultDelay:
		time.Sleep(it.delay)
	case faultCancel:
		it.inj.cfg.OnCancel()
	}
	return false
}

// Err reports the injected error, else the input's own.
func (it *faultIter) Err() error { return engine.FirstErr(it.err, it.in.Err()) }

func (it *faultIter) Close() { it.in.Close() }

func (it *faultIter) NextBatch(b *engine.RowBatch) bool {
	if it.err != nil {
		b.Reset()
		return false
	}
	if !it.fired && it.n >= it.faultRow && it.fire() {
		b.Reset()
		return false
	}
	ok := it.in.NextBatch(b)
	if !ok {
		return false
	}
	it.n += int64(b.Len())
	if !it.fired && it.n >= it.faultRow && it.mode == faultErr {
		// Truncate the delivered batch at the fault row and arm the error
		// for the next pull, honoring the NextBatch contract (true iff at
		// least one row is delivered).
		keep := b.Len() - int(it.n-it.faultRow)
		it.n = it.faultRow
		if it.fire() {
			if keep <= 0 {
				b.Reset()
				return false
			}
			b.Rows = b.Rows[:keep]
		}
	}
	return b.Len() > 0
}
