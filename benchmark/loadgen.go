package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"predator"
)

// env is one loaded database, served over TCP from this process, with
// the load connections and one control connection dialled.
type env struct {
	w         *workload
	in        *inputs
	dir       string
	db        *predator.DB
	srv       *predator.Server
	conns     []*predator.Client
	ctl       *predator.Client
	userBytes int64 // user bytes inserted while loading
	children  []int // executor pids, from SHOW EXECUTORS
}

// setUp creates, loads, registers, serves, dials and runs one checked
// statement per connection (which also starts the executor fleet). The
// time it takes is the workload's set-up time.
func setUp(w *workload, in *inputs, root string) (*env, error) {
	dir, err := os.MkdirTemp(root, w.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, in: in, dir: dir}
	if err := e.open(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) open() error {
	db, err := predator.Open(filepath.Join(e.dir, "bench.db"), e.w.options()...)
	if err != nil {
		return err
	}
	e.db = db
	if e.userBytes, err = e.w.load(db, e.in); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	e.srv = predator.NewServerWith(db, predator.ServerOptions{Logf: func(string, ...any) {}})
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	for i := 0; i < loadConns+1; i++ {
		c, err := predator.Dial(addr, "bench")
		if err != nil {
			return err
		}
		if i == loadConns {
			e.ctl = c
		} else {
			e.conns = append(e.conns, c)
		}
	}
	if !e.w.insert {
		// One checked statement per connection: it starts the fleet,
		// compiles the UDF and pulls the table through the pool. An
		// insert would change the table, so insert_commit skips it.
		for i, c := range e.conns {
			text, key := newStream(e.w, e.in.seed, loadConns+2+i).next()
			res, err := c.Exec(text)
			if err != nil {
				return fmt.Errorf("first statement: %w", err)
			}
			if !e.w.verify(e.in, key, res.Rows, res.RowsAffected) {
				return fmt.Errorf("first statement: wrong answer to %q", text)
			}
		}
	}
	res, err := e.ctl.Exec("SHOW EXECUTORS")
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		if pid := int(r[1].Int); pid > 0 {
			e.children = append(e.children, pid)
		}
	}
	if len(e.children) != e.w.fleet {
		return fmt.Errorf("SHOW EXECUTORS lists %d live executors, want %d", len(e.children), e.w.fleet)
	}
	return nil
}

// close hangs up, stops the server (which closes the database and the
// executor fleet) and removes the database directory. A second call
// does nothing.
func (e *env) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	if e.ctl != nil {
		e.ctl.Close()
	}
	var err error
	switch {
	case e.srv != nil:
		err = e.srv.Close()
	case e.db != nil:
		err = e.db.Close()
	}
	e.conns, e.ctl, e.srv, e.db = nil, nil, nil, nil
	os.RemoveAll(e.dir)
	return err
}

// sample is one measured statement. The fields are float32 and the
// per-connection logs are allocated once at full size, so that the
// generator's own memory is the same in every run and no slice grows
// while the clock is running.
type sample struct {
	end  float32 // completion, seconds from the start of the measured window
	lat  float32 // latency in ms: from the send (closed loop) or from the due time (open loop)
	late float32 // ms between the due time and the send (open loop only)
}

// sampleLogCap is the capacity of one connection's sample log: 15 s at
// 35 000 statements per second, several times what any workload does.
const sampleLogCap = 1 << 19

// loadResult is what one pass of the load generator observed.
type loadResult struct {
	samples   []sample
	attempted int64
	failed    int64     // errors and wrong answers
	acked     int64     // statements acknowledged without error (warm-up included)
	userBytes int64     // user bytes in acknowledged inserts (warm-up included)
	cpu       []float64 // CPU seconds of process and children at each slice boundary
	rss       []float64 // highest resident MiB of process and children sampled in each slice
	firstErr  string
}

// slices is the number of equal parts the measured window is cut into;
// rate, CPU and memory metrics are medians or quartiles over them.
const slices = 12

// rssEvery is the time between two readings of the resident set.
const rssEvery = 50 * time.Millisecond

// runLoad drives the workload over the env's load connections for warm
// + window seconds and measures the last window seconds. Every answer
// is verified. seed fixes the keys, payloads and arrival times.
func runLoad(e *env, seed int64, warm, window time.Duration) (*loadResult, error) {
	res := &loadResult{cpu: make([]float64, slices+1), rss: make([]float64, slices)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	measureFrom := start.Add(warm)
	stopAt := measureFrom.Add(window)

	// Read CPU at the start of the window and at each slice boundary.
	var procErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i <= slices; i++ {
			time.Sleep(time.Until(measureFrom.Add(window * time.Duration(i) / slices)))
			c, err := cpuSecondsAll(e.children)
			if err != nil {
				procErr.Store(err)
				return
			}
			res.cpu[i] = c
		}
	}()

	// Read the resident set every rssEvery and keep each slice's highest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Until(measureFrom))
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for now := range tick.C {
			i := int(now.Sub(measureFrom) * slices / window)
			if i >= slices {
				return
			}
			r, err := residentAllMB(e.children)
			if err != nil {
				procErr.Store(err)
				return
			}
			res.rss[i] = max(res.rss[i], r)
		}
	}()

	for ci, c := range e.conns {
		wg.Add(1)
		go func(ci int, c *predator.Client) {
			defer wg.Done()
			st := newStream(e.w, seed, ci)
			var arrivals *rand.Rand
			due := start
			if e.w.open {
				arrivals = rngFor(seed, streamArrivals, ci)
			}
			local := make([]sample, 0, sampleLogCap)
			var attempted, failed, acked, userBytes int64
			var firstErr string
			for {
				var sent time.Time
				if e.w.open {
					due = due.Add(e.w.gap(arrivals))
					if !due.Before(stopAt) {
						break
					}
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					sent = time.Now()
				} else {
					sent = time.Now()
					if !sent.Before(stopAt) {
						break
					}
					due = sent
				}
				text, key := st.next()
				r, err := c.Exec(text)
				done := time.Now()
				ok := err == nil && e.w.verify(e.in, key, r.Rows, r.RowsAffected)
				if err == nil {
					acked++
					if e.w.insert {
						userBytes += userBytesPerInsert(text)
					}
				}
				measured := !due.Before(measureFrom)
				if measured || !ok {
					attempted++ // a failure during warm-up is still a failure
				}
				if !ok {
					failed++
					if firstErr == "" {
						firstErr = describeFailure(text, err)
					}
					continue
				}
				if !measured {
					continue
				}
				local = append(local, sample{
					end:  float32(done.Sub(measureFrom).Seconds()),
					lat:  float32(float64(done.Sub(due)) / 1e6),
					late: float32(float64(sent.Sub(due)) / 1e6),
				})
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.attempted += attempted
			res.failed += failed
			res.acked += acked
			res.userBytes += userBytes
			if res.firstErr == "" {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	if err, _ := procErr.Load().(error); err != nil {
		return nil, err
	}
	return res, nil
}

func describeFailure(text string, err error) string {
	if len(text) > 80 {
		text = text[:80] + "..."
	}
	if err != nil {
		return fmt.Sprintf("%q: %v", text, err)
	}
	return fmt.Sprintf("%q: wrong answer", text)
}

// gap draws the time to one connection's next open-loop arrival:
// Poisson arrivals, so exponential gaps at the connection's share of
// the offered rate.
func (w *workload) gap(arrivals *rand.Rand) time.Duration {
	return time.Duration(arrivals.ExpFloat64() / (w.rate / loadConns) * float64(time.Second))
}

// columns returns the samples' completion offsets, latencies and send
// delays as separate slices.
func (r *loadResult) columns() (ends, lats, lates []float64) {
	for _, s := range r.samples {
		ends = append(ends, float64(s.end))
		lats = append(lats, float64(s.lat))
		lates = append(lates, float64(s.late))
	}
	return ends, lats, lates
}
