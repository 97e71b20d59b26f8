package chaos

import (
	"math/rand"
	"sync"
	"time"
)

// ClientKind enumerates misbehaviors of a compile-service client, the
// daemon-side mirror of the worker faults: where a wire.Fault wedges a
// worker under the dispatch layer, a ClientFault wedges (or severs) the
// submitting side of the service wire. Daemon soaks draw one per job.
type ClientKind int

const (
	// ClientComplete submits the job and reads the reply — a well-behaved
	// build client.
	ClientComplete ClientKind = iota
	// ClientDisconnect severs the connection D after submitting — a killed
	// build (Ctrl-C, OOM). The daemon must cancel exactly this client's
	// work and reclaim its tokens.
	ClientDisconnect
	// ClientHang submits but never reads the reply, holding the connection
	// open for D — a stopped (SIGSTOP) or swapping client. The daemon's
	// write deadline must prevent the connection goroutine from wedging.
	ClientHang
)

// ClientFault is one client behavior.
type ClientFault struct {
	Kind ClientKind
	D    time.Duration
}

// ClientRandom configures a client plan's draws; at most one misbehavior
// fires per job (checked in the order disconnect, hang).
type ClientRandom struct {
	DisconnectProb float64
	Disconnect     time.Duration
	HangProb       float64
	Hang           time.Duration
}

// ClientPlan decides the behavior of each submitted job by a seeded draw;
// ClientSeeded builds one. Safe for concurrent use; behaviors apply in
// global arrival order, like a wire.Plan.
type ClientPlan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	random ClientRandom
	calls  int
}

// ClientSeeded returns a plan drawing behaviors from cfg with a
// deterministic seed.
func ClientSeeded(seed int64, cfg ClientRandom) *ClientPlan {
	return &ClientPlan{rng: rand.New(rand.NewSource(seed)), random: cfg}
}

// Calls reports how many jobs the plan has decided.
func (p *ClientPlan) Calls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

// Take returns the behavior for the next job.
func (p *ClientPlan) Take() ClientFault {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	switch draw := p.rng.Float64(); {
	case draw < p.random.DisconnectProb:
		return ClientFault{Kind: ClientDisconnect, D: p.random.Disconnect}
	case draw < p.random.DisconnectProb+p.random.HangProb:
		return ClientFault{Kind: ClientHang, D: p.random.Hang}
	}
	return ClientFault{Kind: ClientComplete}
}
