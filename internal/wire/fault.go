package wire

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Kind enumerates the injectable faults: the failure modes of the paper's
// shared workstation fleet (loaded, wedged, sick, crashed or unreachable
// machines), scripted so tests can drive each recovery path on purpose.
type Kind int

const (
	// Pass serves the call normally.
	Pass Kind = iota
	// Delay sleeps Fault.D before serving normally — a loaded workstation.
	Delay
	// Hang blocks the call for Fault.D (0: until its connection ends) and
	// then fails it — a wedged workstation; drives the client's deadline.
	Hang
	// ErrorReply answers Fault.Err without serving — a sick server. Use a
	// "warp-err:<code>: ..." message to exercise coded-error handling.
	ErrorReply
	// Drop cuts the connection under the call — a crash or network
	// partition; the client sees a transport error.
	Drop
)

// Fault is one scripted fault.
type Fault struct {
	Kind Kind
	D    time.Duration // Delay/Hang duration (Hang: 0 means until the connection ends)
	Err  string        // ErrorReply message
}

// Random configures the seeded-random tail of a plan: each call draws
// independently; at most one fault kind fires per call (checked in the
// order drop, error, delay).
type Random struct {
	DropProb  float64
	ErrProb   float64
	Err       string
	DelayProb float64
	Delay     time.Duration
}

// Plan decides the fault for each call it is asked about, in global arrival
// order across all connections. Safe for concurrent use. A nil *Plan passes
// everything.
type Plan struct {
	mu     sync.Mutex
	script []Fault
	next   int
	rng    *rand.Rand
	random Random
	calls  int
}

// Script returns a plan that applies the given faults to the first
// len(faults) calls in order, then passes everything through.
func Script(faults ...Fault) *Plan { return &Plan{script: faults} }

// Seeded returns a plan drawing faults from cfg with a deterministic seed.
func Seeded(seed int64, cfg Random) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), random: cfg}
}

// Calls reports how many calls the plan has decided.
func (p *Plan) Calls() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// take returns the fault for the next call.
func (p *Plan) take() Fault {
	if p == nil {
		return Fault{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.next < len(p.script) {
		f := p.script[p.next]
		p.next++
		return f
	}
	if p.rng != nil {
		switch draw := p.rng.Float64(); {
		case draw < p.random.DropProb:
			return Fault{Kind: Drop}
		case draw < p.random.DropProb+p.random.ErrProb:
			return Fault{Kind: ErrorReply, Err: p.random.Err}
		case draw < p.random.DropProb+p.random.ErrProb+p.random.DelayProb:
			return Fault{Kind: Delay, D: p.random.Delay}
		}
	}
	return Fault{}
}

// Inject decides the next call's fault and carries it out on c, the
// connection the call arrived on: Delay waits and then lets the call
// through, Hang waits and fails it, ErrorReply fails it, and Drop cuts c and
// fails it. Waits end early when c ends. A non-nil error decides the call;
// otherwise the caller serves it.
func (p *Plan) Inject(c *Conn) error {
	f := p.take()
	switch f.Kind {
	case Delay:
		c.wait(f.D)
	case Hang:
		d := f.D
		if d <= 0 {
			d = time.Hour
		}
		c.wait(d)
		return errors.New("chaos: hang released")
	case ErrorReply:
		if f.Err == "" {
			return errors.New("chaos: injected error")
		}
		return errors.New(f.Err)
	case Drop:
		c.Close()
		return errors.New("chaos: connection dropped")
	}
	return nil
}

// wait sleeps for d or until the connection ends, whichever comes first.
func (c *Conn) wait(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.gone:
	}
}
