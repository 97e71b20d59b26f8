package wire

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/rpc"
	"testing"
	"time"
)

// echo is a test service whose Echo calls pass through a plan.
type echo struct {
	plan *Plan
	conn *Conn
	done chan<- error // receives each call's fault error once Inject returns
}

func (e *echo) Echo(in string, out *string) error {
	err := e.plan.Inject(e.conn)
	if e.done != nil {
		e.done <- err
	}
	if err != nil {
		return err
	}
	*out = in
	return nil
}

// serveEcho starts a Server of echo services sharing plan.
func serveEcho(t *testing.T, plan *Plan, done chan<- error) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := Serve(ln, func(c *Conn) map[string]any {
		return map[string]any{"Echo": &echo{plan: plan, conn: c, done: done}}
	})
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server) *rpc.Client {
	t.Helper()
	c, err := rpc.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func echoOnce(c *rpc.Client, d time.Duration) error {
	var out string
	return Call(context.Background(), c, "Echo.Echo", "hi", &out, d)
}

// TestChaosPlanDraws: a script applies in order and then passes; a seeded
// plan draws drop, then error, then delay from one uniform number per call;
// a nil plan passes everything.
func TestChaosPlanDraws(t *testing.T) {
	p := Script(Fault{Kind: Hang}, Fault{Kind: Drop})
	for i, want := range []Kind{Hang, Drop, Pass, Pass} {
		if got := p.take().Kind; got != want {
			t.Errorf("script call %d: %v, want %v", i, got, want)
		}
	}
	if p.Calls() != 4 {
		t.Errorf("Calls = %d, want 4", p.Calls())
	}

	cfg := Random{DropProb: 0.2, ErrProb: 0.3, Err: "sick", DelayProb: 0.25, Delay: time.Millisecond}
	seeded, rng := Seeded(42, cfg), rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		want := Pass
		switch u := rng.Float64(); {
		case u < 0.2:
			want = Drop
		case u < 0.5:
			want = ErrorReply
		case u < 0.75:
			want = Delay
		}
		if got := seeded.take().Kind; got != want {
			t.Fatalf("seeded call %d: %v, want %v", i, got, want)
		}
	}

	var none *Plan
	if f := none.take(); f.Kind != Pass || none.Calls() != 0 {
		t.Errorf("nil plan: %+v, %d calls", f, none.Calls())
	}
}

// TestChaosInjectOnConn carries out each kind on a served
// connection: ErrorReply answers its message, Drop cuts the connection
// (a transport error, not a server error), and Delay passes.
func TestChaosInjectOnConn(t *testing.T) {
	s := serveEcho(t, Script(
		Fault{Kind: ErrorReply, Err: "warp-err:unavailable: sick"},
		Fault{Kind: Delay, D: time.Millisecond},
		Fault{Kind: Drop},
	), nil)
	c := dial(t, s)
	var se rpc.ServerError
	if err := echoOnce(c, time.Second); !errors.As(err, &se) || se.Error() != "warp-err:unavailable: sick" {
		t.Errorf("ErrorReply answered %v", err)
	}
	if err := echoOnce(c, time.Second); err != nil {
		t.Errorf("Delay failed the call: %v", err)
	}
	if err := echoOnce(c, time.Second); err == nil || errors.As(err, &se) {
		t.Errorf("Drop answered %v, want a transport error", err)
	}
	if err := echoOnce(dial(t, s), time.Second); err != nil {
		t.Errorf("a new connection after the drop failed: %v", err)
	}
}

// TestChaosHangReleasedOnHangUp: a call parked on an open-ended Hang fails
// its client with ErrDeadline, and the client's hang-up releases the
// handler at once while the server keeps serving.
func TestChaosHangReleasedOnHangUp(t *testing.T) {
	done := make(chan error, 2)
	s := serveEcho(t, Script(Fault{Kind: Hang}), done)
	if err := echoOnce(dial(t, s), 50*time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("hung call answered %v, want ErrDeadline", err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hung handler not released by the client hanging up")
	}
	if err := echoOnce(dial(t, s), time.Second); err != nil {
		t.Errorf("server stopped serving after the hang: %v", err)
	}
}

// TestCallCancel: a cancelled context abandons the call with ctx.Err() but
// leaves the client up, so other calls on it go on while the abandoned one
// is still parked on the server; no deadline means a plain call.
func TestCallCancel(t *testing.T) {
	s := serveEcho(t, Script(Fault{Kind: Hang}), nil)
	c := dial(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	var out string
	if err := Call(ctx, c, "Echo.Echo", "hi", &out, -1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call answered %v", err)
	}
	if err := echoOnce(c, time.Second); err != nil {
		t.Errorf("client unusable after cancellation: %v", err)
	}
	if err := echoOnce(dial(t, s), -1); err != nil {
		t.Errorf("plain call failed: %v", err)
	}
}

// TestDrainStopAcceptingKeepsLiveConns: StopAccepting refuses new
// connections but keeps live ones serving; Close then cuts them.
func TestDrainStopAcceptingKeepsLiveConns(t *testing.T) {
	s := serveEcho(t, nil, nil)
	c := dial(t, s)
	if err := echoOnce(c, time.Second); err != nil {
		t.Fatal(err)
	}
	s.StopAccepting()
	if nc, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		nc.Close()
		t.Error("dial succeeded after StopAccepting")
	}
	if err := echoOnce(c, time.Second); err != nil {
		t.Errorf("live connection failed after StopAccepting: %v", err)
	}
	s.Close()
	if err := echoOnce(c, time.Second); err == nil {
		t.Error("call succeeded after Close")
	}
}
