package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mictrend/internal/faultpoint"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
	"mictrend/internal/trend"
)

// The serving equivalence oracle: random sequences of every operation the
// core faces — ingests, replays, conflicting ingests, folds whose retries
// run out, forced refits of committed months, clean restarts and crashes —
// after each of which the published epoch must equal a cold analysis of
// the months committed so far.

type oracleOpKind int

const (
	opIngest    oracleOpKind = iota // fold source month arg at the next index
	opReplay                        // re-ingest committed month arg (mod count): idempotent
	opConflict                      // different records at a committed index, or a gap: 409
	opFoldFault                     // fold source month arg while every retry fails: unwound
	opLoadFault                     // fold source month arg while committed month arg (mod count) fails to load: refit
	opRestart                       // Close, then NewCore on the same directory
	opCrash                         // fold source month arg into crash site arg (mod sites), then restart
	numOracleOps
)

var oracleOpNames = [...]string{"ingest", "replay", "conflict", "fold-fault", "load-fault", "restart", "crash"}

type oracleOp struct {
	kind oracleOpKind
	arg  int
}

func (op oracleOp) String() string { return fmt.Sprintf("%s(%d)", oracleOpNames[op.kind], op.arg) }

// oracleCrashSites are the injected crashes of an opCrash fold; each one
// poisons the core before the month commits.
var oracleCrashSites = []struct {
	point string
	spec  faultpoint.Spec
}{
	{"serve/fold", faultpoint.Spec{Panic: true}},
	{"trend/ckpt-save", faultpoint.Spec{Panic: true}},
	{"serve/month-write", faultpoint.Spec{Panic: true}},
	{"serve/crash-pre-wal", faultpoint.Spec{Panic: true}},
	{"serve/wal-torn", faultpoint.Spec{}},
}

// genOracleOps draws one operation sequence. Every sequence contains a fold
// that unwinds followed by an ingest of a different month at the same index.
func genOracleOps(rng *rand.Rand, n, sources int) []oracleOp {
	weights := [numOracleOps]int{opIngest: 8, opReplay: 2, opConflict: 2, opFoldFault: 2, opLoadFault: 3, opRestart: 2, opCrash: 2}
	total := 0
	for _, w := range weights {
		total += w
	}
	ops := make([]oracleOp, 0, n+2)
	for len(ops) < n {
		r := rng.Intn(total)
		kind := oracleOpKind(0)
		for r >= weights[kind] {
			r -= weights[kind]
			kind++
		}
		ops = append(ops, oracleOp{kind: kind, arg: rng.Intn(sources)})
	}
	at := rng.Intn(len(ops) + 1)
	a := rng.Intn(sources)
	pair := []oracleOp{{opFoldFault, a}, {opIngest, (a + 1 + rng.Intn(sources-1)) % sources}}
	return append(ops[:at], append(pair, ops[at:]...)...)
}

// oracle runs operation sequences against a source corpus.
type oracle struct {
	t        *testing.T
	src      *mic.Dataset
	root     string                     // parent directory of every run's store
	controls map[string]*trend.Analysis // cold analyses by committed source list
}

// control returns the cold, uncheckpointed analysis of the committed months:
// committed[i] is the source month folded at index i.
func (o *oracle) control(committed []int) (*trend.Analysis, error) {
	key := fmt.Sprint(committed)
	if a, ok := o.controls[key]; ok {
		return a, nil
	}
	ds := &mic.Dataset{Diseases: o.src.Diseases, Medicines: o.src.Medicines, Hospitals: o.src.Hospitals}
	for i, j := range committed {
		ds.Months = append(ds.Months, &mic.Monthly{Month: i, Records: o.src.Months[j].Records})
	}
	a, err := trend.Analyze(context.Background(), ds, servingTrendOptions())
	if err != nil {
		return nil, err
	}
	o.controls[key] = a
	return a, nil
}

// open starts a core on dir and waits for its first epoch.
func (o *oracle) open(dir string) (*Core, error) {
	c, _, err := NewCore(CoreOptions{
		Dir: dir, Trend: servingTrendOptions(), Metrics: obs.NewRegistry(),
		Retry: RetryPolicy{Attempts: 2, Sleep: func(time.Duration) {}},
	})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for !c.Ready() {
		if c.poisoned.Load() || time.Now().After(deadline) {
			c.Close()
			return nil, errors.New("core never published its first epoch")
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// run applies ops to a fresh store and checks the epoch after every step.
// The error names the failing step.
func (o *oracle) run(ops []oracleOp) error {
	dir, err := os.MkdirTemp(o.root, "store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := o.open(dir)
	if err != nil {
		return err
	}
	defer func() {
		faultpoint.Reset()
		if c != nil {
			c.Close()
		}
	}()
	var committed []int
	for step, op := range ops {
		if err := o.apply(&c, dir, op, &committed); err != nil {
			return fmt.Errorf("step %d %v: %w", step, op, err)
		}
		if err := o.check(c, committed); err != nil {
			return fmt.Errorf("after step %d %v: %w", step, op, err)
		}
	}
	return nil
}

func (o *oracle) apply(cp **Core, dir string, op oracleOp, committed *[]int) error {
	c := *cp
	ctx := context.Background()
	next := len(*committed)
	ingest := func(source, want int) error {
		_, _, err := c.Ingest(ctx, monthSlice(o.t, o.src, source), want)
		return err
	}
	restart := func(wantClean bool) error {
		cerr := c.Close()
		*cp = nil
		if wantClean && cerr != nil {
			return fmt.Errorf("close: %w", cerr)
		}
		if !wantClean && !errors.Is(cerr, ErrPoisoned) {
			return fmt.Errorf("close after a crash = %v, want ErrPoisoned", cerr)
		}
		nc, err := o.open(dir)
		if err != nil {
			return err
		}
		*cp = nc
		// A crash that wrote nothing leaves the last shutdown marker at the
		// WAL's end, so only a clean restart has a report to assert.
		if wantClean && !nc.Report().CleanShutdown {
			return errors.New("clean restart reported a dirty start")
		}
		return nil
	}
	switch op.kind {
	case opIngest:
		if err := ingest(op.arg, next); err != nil {
			return err
		}
		*committed = append(*committed, op.arg)
	case opReplay:
		if next == 0 {
			return nil
		}
		i := op.arg % next
		before := c.Epoch().Seq
		if err := ingest((*committed)[i], i); err != nil {
			return fmt.Errorf("replay of month %d: %w", i, err)
		}
		if seq := c.Epoch().Seq; seq != before {
			return fmt.Errorf("replay moved the epoch from %d to %d", before, seq)
		}
	case opConflict:
		want, source := next+1, op.arg // a gap past the fold position
		if next > 0 && op.arg%2 == 0 {
			want = op.arg % next
			source = ((*committed)[want] + 1) % o.src.T()
		}
		if err := ingest(source, want); !errors.Is(err, ErrMonthConflict) {
			return fmt.Errorf("conflicting ingest at %d returned %v, want ErrMonthConflict", want, err)
		}
	case opFoldFault:
		// An even arg fails before the analysis starts; an odd one fails the
		// month's checkpoint write, after the pipeline has filtered it.
		point := "serve/fold"
		if op.arg%2 == 1 {
			point = "serve/month-write"
		}
		faultpoint.Enable(point, faultpoint.Spec{})
		err := ingest(op.arg, next)
		faultpoint.Reset()
		if err == nil || errors.Is(err, ErrPoisoned) {
			return fmt.Errorf("fold with exhausted retries returned %v, want a terminal error", err)
		}
	case opLoadFault:
		if next > 0 {
			month := fmt.Sprintf("month-%d", op.arg%next)
			faultpoint.Enable("trend/ckpt-load", faultpoint.Spec{
				Err: errors.New("injected load failure"), Match: func(d string) bool { return d == month },
			})
		}
		err := ingest(op.arg, next)
		faultpoint.Reset()
		if err != nil {
			return err
		}
		*committed = append(*committed, op.arg)
	case opRestart:
		return restart(true)
	case opCrash:
		site := oracleCrashSites[op.arg%len(oracleCrashSites)]
		faultpoint.Enable(site.point, site.spec)
		err := ingest(op.arg, next)
		faultpoint.Reset()
		if !errors.Is(err, ErrPoisoned) {
			return fmt.Errorf("crash at %s returned %v, want ErrPoisoned", site.point, err)
		}
		return restart(false)
	}
	return nil
}

// check compares the published epoch with the cold analysis of committed.
func (o *oracle) check(c *Core, committed []int) error {
	e := c.Epoch()
	if e.Months != len(committed) {
		return fmt.Errorf("epoch covers %d months, want %d", e.Months, len(committed))
	}
	if len(committed) == 0 {
		if e.Analysis != nil {
			return errors.New("empty epoch carries an analysis")
		}
		return nil
	}
	want, err := o.control(committed)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(e.Analysis, want) {
		return fmt.Errorf("epoch over months %v differs from a cold analysis", committed)
	}
	return nil
}

// shrink drops one operation at a time while the sequence still fails.
func (o *oracle) shrink(ops []oracleOp) ([]oracleOp, error) {
	err := o.run(ops)
	for i := 0; i < len(ops); {
		cand := append(append([]oracleOp(nil), ops[:i]...), ops[i+1:]...)
		if cerr := o.run(cand); cerr != nil {
			ops, err = cand, cerr
			continue
		}
		i++
	}
	return ops, err
}

// TestServeMatchesColdAnalysis is the serving equivalence oracle.
func TestServeMatchesColdAnalysis(t *testing.T) {
	seeds, length := 24, 20
	if testing.Short() {
		seeds, length = 4, 10
	}
	faultpoint.Reset()
	defer faultpoint.Reset()
	o := &oracle{t: t, src: genServeCorpus(t, 6), root: t.TempDir(), controls: make(map[string]*trend.Analysis)}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ops := genOracleOps(rand.New(rand.NewSource(seed)), length, o.src.T())
		if err := o.run(ops); err != nil {
			shrunk, serr := o.shrink(ops)
			t.Fatalf("seed %d: %v\noperations: %s\nshrunk to: %s\nwhich fails with: %v",
				seed, err, opList(ops), opList(shrunk), serr)
		}
	}
}

func opList(ops []oracleOp) string {
	s := make([]string, len(ops))
	for i, op := range ops {
		s[i] = op.String()
	}
	return strings.Join(s, " ")
}
