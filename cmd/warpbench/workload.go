package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/interp"
	"repro/internal/link"
	"repro/internal/service"
	"repro/internal/warpsim"
	"repro/internal/wgen"
)

// workload is one set of input programs and the path they are built through.
// The README records why each was chosen.
type workload struct {
	name string
	why  string
	// program returns the base program; smoke selects the reduced size the
	// package's test uses. It does not depend on the seed.
	program func(smoke bool) []byte
	// edits is how many functions each build edits: 0 compiles the base
	// program itself every time, -1 edits every function.
	edits int
	// daemon routes builds through service.Daemon over an RPCPool; otherwise
	// they call core.ParallelCompileContext on a LocalPool.
	daemon bool
	// warm keeps one pool, with a disk tier warmed with the base program, for
	// the whole run; otherwise every build gets a fresh pool and empty cache.
	warm bool
	// verifyEvery: the first, the last and every verifyEvery-th timed build
	// are checked against a sequential compile of the same source.
	verifyEvery int
}

var workloads = []workload{
	{
		name: "straggler_cold",
		why:  "1 huge + 12 tiny functions, cold: modulo scheduling of one function is the whole critical path and every other slot idles",
		program: func(smoke bool) []byte {
			return pick(smoke, wgen.SyntheticProgram(wgen.Small, 3), wgen.MixedProgram(12))
		},
		verifyEvery: 1,
	},
	{
		name: "wide_cold",
		why:  "12 medium functions over 4 sections, cold: cross-function dispatch fills every slot; control for anything that spends idle slots",
		program: func(smoke bool) []byte {
			return pick(smoke, wgen.MultiSectionProgram(wgen.Small, 2), wgen.WideProgram(12, 4))
		},
		verifyEvery: 1,
	},
	{
		name:        "incremental_1edit",
		why:         "256 small functions, warm disk-backed cache, one function edited per build: frontend, cache reads and link tail exposed, codegen idle",
		program:     func(smoke bool) []byte { return pick(smoke, wgen.SmallFuncsProgram(16), wgen.SmallFuncsProgram(256)) },
		edits:       1,
		warm:        true,
		verifyEvery: 250,
	},
	{
		name:        "daemon_rpc_smallfuncs",
		why:         "daemon over RPC workers, two clients, all 64 small functions edited per job: per-function overhead, wire, cache writes and cross-build steals",
		program:     func(smoke bool) []byte { return pick(smoke, wgen.SmallFuncsProgram(8), wgen.SmallFuncsProgram(64)) },
		edits:       -1,
		daemon:      true,
		warm:        true,
		verifyEvery: 10,
	},
}

func pick(smoke bool, small, full []byte) []byte {
	if smoke {
		return small
	}
	return full
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is what one run of one workload needs to know.
type config struct {
	seed    uint64
	seconds float64
	// builds, when positive, ends a timed window after that many builds per
	// client instead of after seconds; only the package's test sets it.
	builds  int
	smoke   bool // the reduced programs; only the package's test sets it
	workers int
	tmp     string // scratch directory, relative to the working directory
	commit  string // recorded in the output, nothing else
}

// env is a workload that has been set up: reference results, and the pool or
// daemon its builds go through.
type env struct {
	w    *workload
	cfg  config
	file string
	src  []byte

	ref       *compiler.Result // sequential compile of src
	seqWall   time.Duration
	objects   [][]byte // asm.Encode of every reference object, for the determinism check
	simStats  warpsim.Stats
	simRun    time.Duration
	interpRun time.Duration

	pool    *cluster.LocalPool // warm LocalPool workloads
	rpc     *cluster.RPCPool
	servers []*cluster.WorkerServer
	daemon  *service.Daemon
	clients []*service.Client
	dir     string

	// coldCache accumulates the cache counters of the per-build pools of a
	// cold workload, which do not outlive their build.
	coldCache fcache.Stats
	next      []int // next job number, per client
}

// setUp prepares w: it generates the program, compiles the sequential
// reference, checks the reference on warpsim against interp, and starts and
// warms whatever the builds go through. rep keeps repeated set-ups of one run
// in separate directories.
func setUp(w *workload, cfg config, rep int) (*env, error) {
	e := &env{w: w, cfg: cfg, file: w.name + ".w2", src: w.program(cfg.smoke)}
	e.dir = filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), rep))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	t0 := time.Now()
	ref, err := compiler.CompileModule(e.file, e.src, compiler.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: reference compile: %w", w.name, err)
	}
	e.seqWall = time.Since(t0)
	e.ref = ref
	for _, fr := range ref.Funcs {
		e.objects = append(e.objects, asm.Encode(fr.Object))
	}
	if err := e.runReference(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	clients := 1
	switch {
	case w.daemon:
		clients = 2
		if err := e.startDaemon(clients); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	case w.warm:
		cache := fcache.New(0)
		if err := cache.AttachDisk(filepath.Join(e.dir, "cache"), 0); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		e.pool = cluster.NewLocalPoolWith(cfg.workers, cache)
		if _, _, err := core.ParallelCompileContext(context.Background(), e.file, e.src, e.pool, compiler.Options{}, core.ParallelOptions{}); err != nil {
			return nil, fmt.Errorf("%s: warming: %w", w.name, err)
		}
	}
	e.next = make([]int, clients)
	ok = true
	return e, nil
}

// runReference runs the reference module on warpsim and the source on
// interp, and requires equal outputs. The wgen programs read no input.
func (e *env) runReference() error {
	t0 := time.Now()
	words, st, err := warpsim.NewArray(e.ref.Module, warpsim.Config{MaxCycles: 200_000_000}).Run(nil)
	if err != nil {
		return fmt.Errorf("warpsim: %w", err)
	}
	e.simRun, e.simStats = time.Since(t0), st
	sim := e.ref.Driver.DecodeOutput(words)

	m, info, bag := compiler.Frontend(e.file, e.src)
	if bag.HasErrors() {
		return fmt.Errorf("frontend: %s", bag.String())
	}
	t1 := time.Now()
	out, err := interp.RunModule(m, info, nil, interp.Limits{MaxSteps: 500_000_000})
	if err != nil {
		return fmt.Errorf("interp: %w", err)
	}
	e.interpRun = time.Since(t1)
	if len(sim) != len(out) {
		return fmt.Errorf("warpsim wrote %d values, interp %d", len(sim), len(out))
	}
	for i := range sim {
		want := out[i].AsFloat()
		// float32 wire tolerance, as the repository's differential tests use.
		if math.Abs(sim[i]-want) > 1e-3*math.Max(1, math.Max(math.Abs(sim[i]), math.Abs(want))) {
			return fmt.Errorf("output %d: warpsim %g, interp %g", i, sim[i], want)
		}
	}
	return nil
}

func (e *env) startDaemon(clients int) error {
	var addrs []string
	for i := 0; i < e.cfg.workers; i++ {
		ws, err := cluster.NewWorkerServerDir("127.0.0.1:0", 0, filepath.Join(e.dir, fmt.Sprintf("worker%d", i)))
		if err != nil {
			return err
		}
		e.servers = append(e.servers, ws)
		addrs = append(addrs, ws.Addr())
	}
	rpc, err := cluster.DialPoolWith(addrs, cluster.PoolOptions{})
	if err != nil {
		return err
	}
	e.rpc = rpc
	d, err := service.NewDaemon(service.Config{Backend: rpc})
	if err != nil {
		return err
	}
	e.daemon = d
	// A relative path keeps the socket name short however deep the checkout.
	sock := filepath.Join(e.dir, "d.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	go d.Serve(ln) // returns when Shutdown closes ln
	for c := 0; c < clients; c++ {
		cl, err := service.Dial("unix:" + sock)
		if err != nil {
			return err
		}
		cl.SetIdentity(fmt.Sprintf("tenant-%d", c))
		e.clients = append(e.clients, cl)
	}
	return nil
}

// close stops everything setUp started and removes the scratch directory.
func (e *env) close() {
	for _, cl := range e.clients {
		cl.Close()
	}
	if e.daemon != nil {
		if err := e.daemon.Shutdown(30 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "warpbench:", err)
		}
	}
	if e.rpc != nil {
		e.rpc.Close()
	}
	for _, ws := range e.servers {
		ws.Close()
	}
	os.RemoveAll(e.dir)
}

// jobSource returns the source client c's j-th job compiles. Mutated sources
// are a function of (seed, c, j) alone, and two jobs of one run never share
// an edited function body: MutateFunctions names its inserted variable after
// the low 24 bits of the seed it is given.
func (e *env) jobSource(c, j int) ([]byte, error) {
	k := e.w.edits
	if k == 0 {
		return e.src, nil
	}
	if k < 0 {
		k = len(e.ref.Funcs)
	}
	s := e.cfg.seed<<21 | uint64(c)<<20 | uint64(j)&(1<<20-1)
	src, _, err := wgen.MutateFunctions(e.src, k, s)
	return src, err
}

// built is one finished build as its caller saw it.
type built struct {
	src    []byte
	module *link.Module
	wall   time.Duration
	stats  *core.ParallelStats
}

// build runs client c's next job through the workload's real path and times
// it as the caller sees it: from the call to the linked module returned.
func (e *env) build(rec *recorder, c int) (built, error) {
	j := e.next[c]
	e.next[c]++
	src, err := e.jobSource(c, j)
	if err != nil {
		return built{}, err
	}
	id := fmt.Sprintf("c%d-j%d", c, j)
	ctx := context.Background()
	if e.w.daemon {
		sp := rec.begin("service.Client.Compile", id, -1)
		t0 := time.Now()
		resp, err := e.clients[c].Compile(ctx, e.file, src, compiler.Options{}, core.ParallelOptions{})
		wall := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return built{}, err
		}
		return built{src: src, module: resp.Module, wall: wall, stats: resp.Stats}, nil
	}
	var backend core.Backend = e.pool
	if !e.w.warm {
		backend = cluster.NewLocalPool(e.cfg.workers)
	}
	sp := rec.begin("core.ParallelCompileContext", id, -1)
	t0 := time.Now()
	res, st, err := core.ParallelCompileContext(ctx, e.file, src, backend, compiler.Options{}, core.ParallelOptions{})
	wall := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return built{}, err
	}
	if !e.w.warm {
		e.coldCache.Add(st.Cache)
	}
	return built{src: src, module: res.Module, wall: wall, stats: st}, nil
}

// window is what one timed closed loop produced.
type window struct {
	builds    []built // every completed build, modules kept only for the verified ones
	attempted int
	failed    int // builds that errored or whose module differs from the sequential compiler's
	firstErr  error
	// waited is the time the clients spent inside builds, averaged over
	// clients: the window less the harness's own input generation.
	waited     time.Duration
	allocBytes uint64
}

// measure runs the closed loop: every client submits its next job as soon as
// the previous one returns, until the time or the build count is reached.
// Afterwards the first, the last and every verifyEvery-th build of each
// client are compared with a sequential compile of the same source.
func (e *env) measure(rec *recorder, seconds float64, builds int) window {
	var (
		mu  sync.Mutex
		win window
		wg  sync.WaitGroup
	)
	perClient := make([][]built, len(e.next))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for c := range e.next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				if builds > 0 && n >= builds || builds <= 0 && n > 0 && time.Since(start).Seconds() >= seconds {
					return
				}
				b, err := e.build(rec, c)
				mu.Lock()
				win.attempted++
				if err != nil {
					// The loop goes on, so that failed/attempted is a share
					// of the whole window.
					win.failed++
					if win.firstErr == nil {
						win.firstErr = err
					}
					mu.Unlock()
					continue
				}
				mu.Unlock()
				// Keep the modules of the builds to verify; the previous
				// build was kept only in case it was the last.
				list := perClient[c]
				if k := len(list) - 1; k >= 0 && k%e.w.verifyEvery != 0 {
					list[k].module, list[k].src = nil, nil
				}
				perClient[c] = append(list, b)
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	win.allocBytes = after.TotalAlloc - before.TotalAlloc

	for c := range perClient {
		for _, b := range perClient[c] {
			win.waited += b.wall
			if b.module != nil {
				if err := e.verify(b); err != nil {
					win.failed++
					if win.firstErr == nil {
						win.firstErr = err
					}
				}
			}
			b.module, b.src = nil, nil
			win.builds = append(win.builds, b)
		}
	}
	win.waited /= time.Duration(len(perClient))
	return win
}

// verify compares a build's module with the sequential compiler's for the
// same source; for the base program that is the reference module.
func (e *env) verify(b built) error {
	seq := e.ref.Module
	if !bytes.Equal(b.src, e.src) {
		res, err := compiler.CompileModule(e.file, b.src, compiler.Options{})
		if err != nil {
			return fmt.Errorf("sequential compile of a mutated source: %w", err)
		}
		seq = res.Module
	}
	return core.VerifySameOutput(seq, b.module)
}
