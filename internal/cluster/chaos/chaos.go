// Package chaos is a deterministic fault-injection harness for the cluster
// dispatch layer. It serves the real cluster.Worker RPC surface on a
// wire.Server but routes every CompileBatch — the one compile RPC — through
// a wire.Plan that can delay the reply, hang past the caller's deadline,
// answer with an injected error, or drop the underlying connection
// mid-call, so tests can drive each recovery path on purpose. A unit of
// several functions draws one fault for the whole unit.
//
// The package also holds the compile service's client-side plans
// (clients.go), the daemon's mirror of the worker faults.
package chaos

import (
	"net"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/wire"
)

// Serve starts a worker on addr (e.g. "127.0.0.1:0") whose compile calls
// pass through plan. The worker keeps a real artifact cache (cacheBytes as
// in cluster.NewWorker) shared across connections, so recovery tests see
// genuine cache-protocol traffic too. Closing the server cuts every
// connection and releases calls parked on open-ended hangs.
func Serve(addr string, cacheBytes int64, plan *wire.Plan) (*wire.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	w := cluster.NewWorker(cacheBytes)
	srv := wire.Serve(ln, func(c *wire.Conn) map[string]any {
		return map[string]any{"Worker": &faultyWorker{Worker: w, plan: plan, conn: c}}
	})
	return srv, srv.Addr(), nil
}

// faultyWorker is the per-connection RPC service: the shared inner worker
// behind the plan's faults. Ping and CacheStats pass straight through.
type faultyWorker struct {
	*cluster.Worker
	plan *wire.Plan
	conn *wire.Conn
}

// CompileBatch draws one fault per call — a faulted unit fails (or hangs,
// or drops) whole, driving the client's split or retry path.
func (f *faultyWorker) CompileBatch(req core.BatchRequest, reply *cluster.BatchReply) error {
	if err := f.plan.Inject(f.conn); err != nil {
		return err
	}
	return f.Worker.CompileBatch(req, reply)
}
