// Package wire is the transport of the worker protocol: how a connection is
// served, how a call is timed out, and how a call is broken on purpose. The paper's master, section masters and function masters talk
// only by messages between workstations; this package is the one place
// those messages are carried.
//
// It offers three pieces, all on net/rpc:
//
//   - Server serves a listener with one rpc.Server per accepted connection
//     and tracks every connection, so Close cuts them all the way a crash
//     would, and each handler can act on its own connection.
//   - Call issues one RPC under a deadline, abandoned early when its context
//     is cancelled; an expired call fails with ErrDeadline and cuts the
//     connection, a cancelled one leaves it up.
//   - Plan scripts or draws faults per call (fault.go); Plan.Inject carries
//     them out on the call's connection.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"
)

// Server serves net/rpc on a listener. Every accepted connection gets its
// own rpc.Server with the receivers the services function returns for it,
// so a receiver may hold its connection: a fault can cut exactly that
// connection, and a parked call can notice its client leaving.
type Server struct {
	ln       net.Listener
	services func(c *Conn) map[string]any

	mu     sync.Mutex
	conns  map[*Conn]struct{}
	closed bool
}

// Serve starts serving ln in the background. For each accepted connection
// it registers the receivers services(c) returns, each under its map key
// as the service name.
func Serve(ln net.Listener, services func(c *Conn) map[string]any) *Server {
	s := &Server{ln: ln, services: services, conns: make(map[*Conn]struct{})}
	go s.acceptLoop()
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &Conn{Conn: nc, gone: make(chan struct{})}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.serve(c)
	}
}

// serve runs one connection's rpc.Server until the connection ends.
func (s *Server) serve(c *Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	srv := rpc.NewServer()
	for name, rcvr := range s.services(c) {
		if err := srv.RegisterName(name, rcvr); err != nil {
			c.Close()
			return
		}
	}
	srv.ServeConn(c)
}

// StopAccepting closes the listener but keeps live connections, so their
// in-flight calls can finish (a graceful drain).
func (s *Server) StopAccepting() error { return s.ln.Close() }

// Close stops accepting and cuts every live connection at once — the way a
// workstation crash would. Calls parked on a fault's Hang or Delay release
// with their connections. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := s.conns
	s.conns = make(map[*Conn]struct{})
	s.mu.Unlock()
	err := s.ln.Close()
	for c := range conns {
		c.Close()
	}
	return err
}

// Conn is one accepted connection. net/rpc keeps a read outstanding on it
// while handlers run, so its first failed read — the client hanging up, a
// Drop fault, or Server.Close — is seen at once, and ends a fault's wait.
type Conn struct {
	net.Conn
	gone chan struct{}
	once sync.Once
}

func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		c.once.Do(func() { close(c.gone) })
	}
	return n, err
}

// ErrDeadline marks a call abandoned because its deadline expired; the
// connection was cut, so the abandoned handler cannot complete it later.
var ErrDeadline = errors.New("wire: call deadline exceeded")

// Call issues one RPC on c with deadline d (negative: none), abandoned early
// when ctx is cancelled. On expiry c is closed: net/rpc has no cancellation,
// so cutting the transport is the only way to free a call stuck on a hung
// server; the error wraps ErrDeadline. On cancellation the call is only
// abandoned and ctx.Err() returned: c stays usable for other calls, and a
// late reply lands in the call's buffered Done channel and in reply, which
// the caller must therefore not read again.
func Call(ctx context.Context, c *rpc.Client, method string, args, reply any, d time.Duration) error {
	if d < 0 && ctx.Done() == nil {
		return c.Call(method, args, reply)
	}
	call := c.Go(method, args, reply, make(chan *rpc.Call, 1))
	var expiry <-chan time.Time
	if d >= 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expiry = t.C
	}
	select {
	case <-call.Done:
		return call.Error
	case <-expiry:
		c.Close()
		return fmt.Errorf("%w: %s after %v", ErrDeadline, method, d)
	case <-ctx.Done():
		return ctx.Err()
	}
}
