package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"fedgpo/internal/exp"
	"fedgpo/internal/runtime"
)

// fleet is the fleet workload's worker side: TCP endpoints on
// localhost, each a runtime.Serve accept loop over its own fresh
// experiment runtime with a memory-only cache, configured as
// `fedgpo-worker -listen ADDR -capacity 1` configures itself.
type fleet struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
	errs   chan error
	rts    []*exp.Runtime

	mu sync.Mutex
	// affinity collects the pretrain affinity keys of every job the
	// endpoints were asked to run: the fleet must warm up exactly once
	// per key.
	affinity map[string]bool
}

func startFleet(n int, tr *tracer) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel, errs: make(chan error, n), affinity: map[string]bool{}}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = f.stop()
			return nil, fmt.Errorf("fleet endpoint: %w", err)
		}
		rt, err := exp.NewRuntime(1, "")
		if err != nil {
			lis.Close()
			_ = f.stop()
			return nil, err
		}
		// Follow the coordinator's wire-forwarded inner budget, serial
		// until told otherwise (fedgpo-worker's -inner-parallel=-1).
		rt.SetInnerParallel(0)
		f.rts = append(f.rts, rt)
		f.addrs = append(f.addrs, lis.Addr().String())
		cfg := runtime.ServeConfig{
			Capacity: 1,
			Run:      f.handler(rt, tr),
			SetInner: func(n int) {
				if n >= 0 {
					rt.SetInnerParallel(n)
				}
			},
			Install: rt.InstallSnapshot,
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.errs <- runtime.Serve(ctx, lis, cfg)
		}()
	}
	return f, nil
}

// handler is the endpoint's per-job entry point, the same steps
// fedgpo-worker takes: decode the spec, check it addresses the
// dispatched key, run it through the runtime's executor. A traced pass
// records the decode and the execution as separate spans.
func (f *fleet) handler(rt *exp.Runtime, tr *tracer) func(string, json.RawMessage) runtime.Result {
	return func(key string, spec json.RawMessage) runtime.Result {
		decode := tr.begin("worker.decode", "", tr.batch())
		sp, err := exp.DecodeJobSpec(spec)
		if err != nil {
			return runtime.Result{Key: key, Err: "fleet endpoint: " + err.Error()}
		}
		job := rt.Job(sp)
		if got := job.Key(); got != key {
			return runtime.Result{Key: key, Err: fmt.Sprintf("fleet endpoint: spec addresses %q, dispatched as %q", got, key)}
		}
		tr.end(decode)
		if job.Affinity != "" {
			f.mu.Lock()
			f.affinity[job.Affinity] = true
			f.mu.Unlock()
		}
		exec := tr.begin("worker.exec", specClass(sp), tr.batch())
		r := rt.RunJob(job)
		tr.endCell(exec, r)
		return r
	}
}

func (f *fleet) pretrainKeys() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.affinity)
}

// stop cancels the accept loops and waits for every endpoint to drain.
func (f *fleet) stop() error {
	f.cancel()
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		return errors.New("fleet endpoints did not drain")
	}
	close(f.errs)
	var errs []error
	for err := range f.errs {
		errs = append(errs, err)
	}
	for _, rt := range f.rts {
		_ = rt.Close()
	}
	return errors.Join(errs...)
}
