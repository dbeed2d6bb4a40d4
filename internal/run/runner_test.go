package run

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/c3i/suite"
	"repro/internal/machine"
)

// The hook workload gives the Runner tests a cheap, controllable variant:
// its Run body calls the test-installed hook, so tests can observe and steer
// executions (e.g. cancel a context mid-sweep) deterministically. It is
// registered only in this test process.
var (
	hookMu  sync.Mutex
	hook    func()
	genHook func()
)

func setHook(f func()) {
	hookMu.Lock()
	hook = f
	hookMu.Unlock()
}

func setGenHook(f func()) {
	hookMu.Lock()
	genHook = f
	hookMu.Unlock()
}

func callHook() {
	hookMu.Lock()
	f := hook
	hookMu.Unlock()
	if f != nil {
		f()
	}
}

func callGenHook() {
	hookMu.Lock()
	f := genHook
	hookMu.Unlock()
	if f != nil {
		f()
	}
}

type hookScenario struct{}

func (hookScenario) ScenarioName() string { return "hook-1" }
func (hookScenario) Units() int           { return 1 }
func (hookScenario) Warm()                {}
func (hookScenario) Validate() error      { return nil }

func init() {
	suite.MustRegister(&suite.Workload{
		Name: "run-hook", Key: "rh", FileTag: "rh", Title: "Runner Test Hook",
		Order: 99, PaperUnits: 1, UnitName: "units/scenario",
		DefaultScale: 1, DataScale: 1, SmallScale: 1,
		Generate: func(scale float64) []suite.Scenario {
			callGenHook()
			return []suite.Scenario{hookScenario{}}
		},
		New: func() suite.Scenario { return hookScenario{} },
		Variants: []*suite.Variant{{
			Name: "sequential", Style: suite.Sequential,
			Defaults: suite.Params{"work": 100},
			Run: func(t *machine.Thread, sc suite.Scenario, p suite.Params) suite.Output {
				callHook()
				t.Compute(int64(p["work"]))
				if p[suite.ValidateParam] != 0 {
					return suite.Output{Checksum: 42, OverheadBytes: 64}
				}
				return suite.Output{}
			},
		}},
	})
}

func hookSpec(work int) Spec {
	return Spec{Workload: "run-hook", Variant: "sequential", Platform: "alpha", Procs: 1,
		Params: suite.Params{"work": work}}
}

func TestRunnerSingleFlightUnderConcurrentRunAll(t *testing.T) {
	setHook(nil)
	r := NewRunner(8)
	specs := make([]Spec, 16)
	for i := range specs {
		specs[i] = hookSpec(500) // all identical after normalization
	}
	recs, err := r.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("16 identical concurrent specs executed %d times, want 1 (single-flight)", got)
	}
	for i, rec := range recs {
		if rec.ModelSeconds != recs[0].ModelSeconds || rec.Key != recs[0].Key {
			t.Errorf("record %d diverged from the single execution: %+v", i, rec)
		}
	}
	// A repeat sweep is served wholly from cache.
	if _, err := r.RunAll(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("cached sweep re-executed: %d executions", got)
	}
}

func TestRunnerRunAllPositionalAndDistinct(t *testing.T) {
	setHook(nil)
	r := NewRunner(4)
	specs := []Spec{hookSpec(100), hookSpec(200), hookSpec(400), hookSpec(100)}
	recs, err := r.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Executions(); got != 3 {
		t.Errorf("3 distinct specs executed %d times", got)
	}
	if !(recs[0].ModelSeconds < recs[1].ModelSeconds && recs[1].ModelSeconds < recs[2].ModelSeconds) {
		t.Errorf("model seconds not increasing with work: %g %g %g",
			recs[0].ModelSeconds, recs[1].ModelSeconds, recs[2].ModelSeconds)
	}
	if recs[3].Key != recs[0].Key || recs[3].ModelSeconds != recs[0].ModelSeconds ||
		recs[3].HostElapsed != recs[0].HostElapsed {
		t.Error("duplicate spec at index 3 did not reuse index 0's record")
	}
}

func TestRunnerContextCancellationMidSweep(t *testing.T) {
	r := NewRunner(1) // serial, so cancellation lands between specs deterministically
	ctx, cancel := context.WithCancel(context.Background())
	var executions atomic.Int32
	setHook(func() {
		if executions.Add(1) == 3 {
			cancel() // cancel while the third spec's engine is running
		}
	})
	defer setHook(nil)
	specs := make([]Spec, 6)
	for i := range specs {
		specs[i] = hookSpec(1000 + i) // distinct, so each requires an execution
	}
	recs, err := r.RunAll(ctx, specs)
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	// The in-flight spec completes (the simulation is not preemptible);
	// everything after it fails fast without executing.
	if got := r.Executions(); got != 3 {
		t.Errorf("executions after cancel = %d, want 3", got)
	}
	for i, rec := range recs {
		if i < 3 && rec.ModelSeconds <= 0 {
			t.Errorf("pre-cancel record %d empty: %+v", i, rec)
		}
		if i >= 3 && rec.ModelSeconds != 0 {
			t.Errorf("post-cancel record %d executed: %+v", i, rec)
		}
	}
}

func TestRunnerWaiterSurvivesWinnerCancellation(t *testing.T) {
	// A single-flight winner whose context dies during suite generation
	// must not poison callers with live contexts that collapsed onto it:
	// they retry and complete.
	setHook(nil)
	r := NewRunner(4)
	ctxA, cancelA := context.WithCancel(context.Background())
	genStarted := make(chan struct{})
	release := make(chan struct{})
	var genOnce sync.Once
	setGenHook(func() {
		genOnce.Do(func() {
			close(genStarted)
			<-release
		})
	})
	defer setGenHook(nil)

	spec := hookSpec(700)
	aErr := make(chan error, 1)
	go func() {
		_, err := r.Run(ctxA, spec)
		aErr <- err
	}()
	<-genStarted // A is the winner, blocked inside Generate

	bDone := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background(), spec)
		bDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let B park on A's in-flight call
	cancelA()
	close(release)

	if err := <-aErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled winner returned %v, want context.Canceled", err)
	}
	if err := <-bDone; err != nil {
		t.Errorf("live-context waiter inherited the winner's cancellation: %v", err)
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("executions = %d, want 1 (the winner never reached the engine; the waiter's retry did)", got)
	}
}

func TestRunnerRunPreCancelled(t *testing.T) {
	setHook(nil)
	r := NewRunner(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, hookSpec(100)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Run returned %v", err)
	}
	if r.Executions() != 0 {
		t.Error("pre-cancelled Run executed anyway")
	}
}

// TestRunnerRejectsMultiProcAlpha: the AlphaStation model has one processor
// whatever a Spec's Procs says, so an alpha Spec with two must fail before
// it executes rather than rerun the one-processor cell under a p2 key.
func TestRunnerRejectsMultiProcAlpha(t *testing.T) {
	setHook(nil)
	r := NewRunner(0)
	ctx := context.Background()
	spec := hookSpec(100)
	spec.Procs = 2
	if _, err := r.Run(ctx, spec); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Errorf("alpha p2 Run returned %v, want an error naming the platform", err)
	}
	if got := r.Executions(); got != 0 {
		t.Errorf("alpha p2 Run executed %d times, want 0", got)
	}
	if _, err := r.Run(ctx, hookSpec(100)); err != nil {
		t.Errorf("alpha p1 Run: %v", err)
	}
	if got := r.Executions(); got != 1 {
		t.Errorf("alpha p1 Run: %d executions, want 1", got)
	}
}

func TestRunnerExecuteBypassesCache(t *testing.T) {
	setHook(nil)
	r := NewRunner(0)
	ctx := context.Background()
	a, err := r.Execute(ctx, hookSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Execute(ctx, hookSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Executions(); got != 2 {
		t.Errorf("Execute consulted the cache: %d executions, want 2", got)
	}
	if a.ModelSeconds != b.ModelSeconds {
		t.Errorf("repeated executions diverge: %g vs %g (simulation must be deterministic)", a.ModelSeconds, b.ModelSeconds)
	}
}

func TestRunnerValidateChecksum(t *testing.T) {
	setHook(nil)
	r := NewRunner(0)
	ctx := context.Background()
	chargeOnly, err := r.Run(ctx, hookSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	if chargeOnly.Checksum != 0 {
		t.Errorf("charge-only run has checksum %x", uint64(chargeOnly.Checksum))
	}
	v := hookSpec(100)
	v.Validate = true
	validated, err := r.Run(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if validated.Checksum != 42 || validated.OverheadBytes != 64 {
		t.Errorf("validated run = checksum %x overhead %d, want 42/64",
			uint64(validated.Checksum), validated.OverheadBytes)
	}
	if validated.Key == chargeOnly.Key {
		t.Error("validate flag not part of the key")
	}
}

func TestRunnerRunScenario(t *testing.T) {
	setHook(nil)
	r := NewRunner(0)
	spec := hookSpec(100)
	spec.Validate = true
	rec, err := r.RunScenario(context.Background(), spec, hookScenario{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checksum != 42 {
		t.Errorf("RunScenario checksum %x, want the scenario's own 42", uint64(rec.Checksum))
	}
	if r.Executions() != 1 {
		t.Errorf("executions = %d", r.Executions())
	}
	// Scenario runs are never cached: identity is not in the key.
	if _, err := r.RunScenario(context.Background(), spec, hookScenario{}); err != nil {
		t.Fatal(err)
	}
	if r.Executions() != 2 {
		t.Error("RunScenario result was cached")
	}
	if _, err := r.RunScenario(context.Background(), spec); err == nil {
		t.Error("RunScenario with no scenarios accepted")
	}
}

// runOnly is a Run-only Executor that fails on one key and logs each call.
type runOnly struct {
	fail  string
	calls []string
}

func (r *runOnly) Run(_ context.Context, spec Spec) (Record, error) {
	r.calls = append(r.calls, spec.Key())
	if spec.Key() == r.fail {
		return Record{}, errors.New("cell failed")
	}
	return Record{Key: spec.Key()}, nil
}

func TestBatchRunOnlyIsSerialAndStopsAtFirstError(t *testing.T) {
	// A Run-only executor sees one Run per Spec in order, and the first
	// error ends the batch: later Specs are never run.
	specs := make([]Spec, 3)
	for i := range specs {
		specs[i] = Spec{Workload: "w", Variant: "v", Platform: "alpha", Procs: 1, Scale: float64(i + 1)}
	}
	ok := &runOnly{}
	recs, err := Batch(context.Background(), ok, specs)
	if err != nil || len(recs) != 3 || recs[2].Key != specs[2].Key() {
		t.Fatalf("Batch = %v, %v", recs, err)
	}
	bad := &runOnly{fail: specs[1].Key()}
	if _, err := Batch(context.Background(), bad, specs); err == nil {
		t.Error("a failing cell did not fail the batch")
	}
	if want := []string{specs[0].Key(), specs[1].Key()}; len(bad.calls) != 2 ||
		bad.calls[0] != want[0] || bad.calls[1] != want[1] {
		t.Errorf("Run calls %v, want %v", bad.calls, want)
	}
}
