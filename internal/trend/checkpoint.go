package trend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mictrend/internal/faultpoint"
	"mictrend/internal/medmodel"
	"mictrend/internal/mic"
	"mictrend/internal/obs"
)

// MonthCheckpoint is the per-month model-stage state the pipeline persists
// through a Checkpointer and restores on a later run: the fitted medication
// model of one (filtered) month, or the recorded degradation when the fit
// failed. A checkpoint carries the DataHash of the month it was fitted on so
// a store pointed at different data (or different fit options) is detected
// and ignored rather than trusted.
type MonthCheckpoint struct {
	// Month is the 0-based month index within the analyzed dataset.
	Month int
	// DataHash fingerprints the filtered month's records and the fit options
	// that shaped the model (see HashMonth). Analyze ignores a loaded
	// checkpoint whose hash does not match the current data.
	DataHash uint64
	// Model is the fitted model; nil when the month's fit degraded, in which
	// case Failure records why and the fallback model is rebuilt
	// deterministically from the month's records at load time.
	Model *medmodel.Model
	// Failure is the StageModel failure of a degraded month (nil for a
	// successful fit).
	Failure *Failure
}

// Checkpointer persists per-month model-stage state so an interrupted
// analysis — or an incremental serving run folding months in one at a time —
// resumes without refitting the months already committed. Implementations
// must make SaveMonth durable before returning (the serving store's
// write-tmp-fsync-rename plus WAL protocol): Analyze treats a returned
// checkpoint as truth and will not refit that month.
//
// Analyze calls LoadMonth once per month at the start of the model stage and
// SaveMonth once per freshly fitted month after the stage completes. Both are
// called from a single goroutine; implementations need not be
// goroutine-safe for the pipeline's sake (the serving store locks anyway,
// because it is also read concurrently by recovery inspection).
type Checkpointer interface {
	// LoadMonth returns the saved checkpoint for month. ok is false when the
	// month has no checkpoint; a non-nil error means the store is damaged for
	// this month (the pipeline refits rather than aborting).
	LoadMonth(month int) (cp MonthCheckpoint, ok bool, err error)
	// SaveMonth durably persists one month's state. An error aborts the
	// analysis: a caller that asked for durable checkpoints must not proceed
	// on a store that cannot commit.
	SaveMonth(cp MonthCheckpoint) error
}

// HashMonth fingerprints one filtered month plus the fit options that shape
// its model: the FNV-1a hash covers every record's hospital, patient,
// disease bag, and medicine bag in order, the EM knobs (MaxIter, Tol,
// PriorWeight) whose change would produce a different model, and
// medmodel.ArithmeticTag, so a model fitted by another EM arithmetic is
// refit rather than served next to fresh ones. The medicine
// vocabulary size is deliberately excluded — it grows as later months intern
// new codes and does not affect the fitted Φ — so an incremental store stays
// valid as the corpus grows.
func HashMonth(month *mic.Monthly, em medmodel.FitOptions) uint64 {
	em = em.WithDefaults()
	h := uint64(fnvOffset64)
	h = fnvWord(h, uint64(month.Month))
	h = fnvWord(h, uint64(em.MaxIter))
	h = fnvWord(h, math.Float64bits(em.Tol))
	h = fnvWord(h, math.Float64bits(em.PriorWeight))
	h = fnvWord(h, medmodel.ArithmeticTag)
	h = fnvWord(h, uint64(len(month.Records)))
	for i := range month.Records {
		r := &month.Records[i]
		h = fnvWord(h, uint64(uint32(r.Hospital)))
		h = fnvWord(h, uint64(uint32(r.Patient)))
		h = fnvWord(h, uint64(len(r.Diseases)))
		for _, dc := range r.Diseases {
			h = fnvWord(h, uint64(uint32(dc.Disease)))
			h = fnvWord(h, uint64(dc.Count))
		}
		h = fnvWord(h, uint64(len(r.Medicines)))
		for _, m := range r.Medicines {
			h = fnvWord(h, uint64(uint32(m)))
		}
	}
	return h
}

// FNV-1a's 64-bit parameters, as hash/fnv uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvPrimePow[k] is fnvPrime64^k (mod 2^64). XOR with a zero byte changes
// nothing, so folding k zero bytes into an FNV-1a state is one
// multiplication by it.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// fnvWord folds v's eight little-endian bytes into the FNV-1a state h —
// exactly what writing them to a hash/fnv New64a would do. The values
// hashed are mostly small, so the zero high bytes are folded in with one
// multiplication instead of one per byte.
func fnvWord(h, v uint64) uint64 {
	n := 8
	for ; v != 0; v >>= 8 {
		h ^= v & 0xff
		h *= fnvPrime64
		n--
	}
	return h * fnvPrimePow[n]
}

// fitModels runs the model stage: medmodel.FitAll when no Checkpointer is
// configured, and the checkpoint-aware variant otherwise, which loads every
// month whose saved state matches the current data (hashes[i] is month i's
// HashMonth), fits only the rest, and commits each fresh fit back to the
// store. The returned models and failures are byte-identical to a run that
// fitted every month from scratch (fits are deterministic, and the store
// round-trips float bits exactly).
func fitModels(ctx context.Context, d *mic.Dataset, hashes []uint64, opts Options, ins *pipelineInstruments) ([]*medmodel.Model, []medmodel.MonthError, error) {
	em := emStreams(ctx, opts.EM, sinkOf(ins), d.T())
	ckpt := opts.Checkpoint
	if ckpt == nil {
		return medmodel.FitAll(ctx, d, em)
	}

	models := make([]*medmodel.Model, d.T())
	var fails []medmodel.MonthError
	loaded := make([]bool, d.T())
	reloaded := 0
	for i := range d.Months {
		if err := faultpoint.Inject("trend/ckpt-load", monthDetail(i)); err != nil {
			continue // damaged entry: refit this month
		}
		cp, ok, err := ckpt.LoadMonth(i)
		if err != nil || !ok || cp.DataHash != hashes[i] {
			continue
		}
		loaded[i] = true
		reloaded++
		if cp.Model != nil {
			models[i] = cp.Model
			continue
		}
		ferr := errors.New("checkpointed model-stage failure")
		if cp.Failure != nil && cp.Failure.Err != "" {
			ferr = errors.New(cp.Failure.Err)
		}
		me := medmodel.MonthError{Month: i, Err: ferr}
		if cp.Failure != nil {
			me.Panicked = cp.Failure.Panicked
		}
		fails = append(fails, me)
	}
	// The smoothed chain (PriorWeight > 0) fits months serially, each prior
	// centered at the previous posterior: a month's model is only reusable
	// when every month before it was reused too. Clamp the loaded set to its
	// contiguous prefix so the chain below re-derives everything after the
	// first hole.
	if opts.EM.PriorWeight > 0 {
		prefix := 0
		for prefix < len(loaded) && loaded[prefix] {
			prefix++
		}
		for i := prefix; i < len(loaded); i++ {
			if loaded[i] {
				loaded[i] = false
				reloaded--
				models[i] = nil
			}
		}
		fails = filterMonthErrors(fails, prefix)
	}
	if ins != nil && reloaded > 0 {
		ins.metrics.Counter("trend/ckpt_months_reused").Add(int64(reloaded))
	}

	var needIdx []int
	for i := range loaded {
		if !loaded[i] {
			needIdx = append(needIdx, i)
		}
	}
	if len(needIdx) > 0 {
		sub := &mic.Dataset{Diseases: d.Diseases, Medicines: d.Medicines, Hospitals: d.Hospitals}
		for _, i := range needIdx {
			sub.Months = append(sub.Months, d.Months[i])
		}
		if em.PriorWeight > 0 {
			// Seed the resumed chain with the last reused posterior (the
			// months before needIdx[0] all loaded, by the prefix clamp above).
			for i := needIdx[0] - 1; i >= 0; i-- {
				if models[i] != nil {
					em.InitialPrior = models[i]
					break
				}
			}
		}
		// Spans from the sub-batch carry positions within it; remap them to
		// real months before the MonthFitted events are derived from them,
		// so a resumed run's stream reads like the original's.
		if inner := em.Trace; inner != nil {
			em.Trace = func(sp obs.SpanEvent) {
				sp.Month = needIdx[sp.Month]
				inner(sp)
			}
		}
		fitted, ffails, ferr := medmodel.FitAll(ctx, sub, em)
		failedAt := make(map[int]medmodel.MonthError, len(ffails))
		for _, mf := range ffails {
			mf.Month = needIdx[mf.Month]
			failedAt[mf.Month] = mf
			fails = append(fails, mf)
		}
		for j, i := range needIdx {
			models[i] = fitted[j]
		}
		if ferr != nil {
			// Cancelled: nothing fitted after the cut is trustworthy, and the
			// caller is abandoning the run — skip the save pass.
			return models, sortMonthErrors(fails), ferr
		}
		for _, i := range needIdx {
			cp := MonthCheckpoint{Month: i, DataHash: hashes[i], Model: models[i]}
			if mf, ok := failedAt[i]; ok {
				cp.Model = nil
				cp.Failure = &Failure{
					Stage: StageModel, Month: i, Err: mf.Err.Error(), Panicked: mf.Panicked,
				}
			}
			if err := faultpoint.Inject("trend/ckpt-save", monthDetail(i)); err != nil {
				return models, sortMonthErrors(fails), fmt.Errorf("trend: checkpointing month %d: %w", i, err)
			}
			if err := ckpt.SaveMonth(cp); err != nil {
				return models, sortMonthErrors(fails), fmt.Errorf("trend: checkpointing month %d: %w", i, err)
			}
		}
	}
	return models, sortMonthErrors(fails), nil
}

// filterMonthErrors drops loaded-checkpoint failures at or past the smoothed
// chain's reuse prefix (those months are being refitted).
func filterMonthErrors(fails []medmodel.MonthError, prefix int) []medmodel.MonthError {
	out := fails[:0]
	for _, mf := range fails {
		if mf.Month < prefix {
			out = append(out, mf)
		}
	}
	return out
}

// emStreams routes FitAll's em/month spans through one ordered batch of
// total months, which derives the MonthFitted events from them: events go
// to EM.Observer, or to the pipeline's Observer when that is unset, and
// spans to EM.Trace, or to the pipeline's Trace. FitAll itself then only
// builds spans, so remapping a span's month remaps its event too.
func emStreams(ctx context.Context, em medmodel.FitOptions, sink *obs.Sink, total int) medmodel.FitOptions {
	events, spans := sink.Callbacks()
	if em.Observer != nil {
		events = em.Observer
	}
	if em.Trace != nil {
		spans = em.Trace
	}
	if b := obs.NewSink(ctx, events, spans, nil).Batch(total); b != nil {
		em.Observer, em.Trace = nil, b.Next
	}
	return em
}

// sortMonthErrors orders month failures ascending, matching FitAll's
// contract after checkpoint-loaded and freshly fitted failures interleave.
func sortMonthErrors(fails []medmodel.MonthError) []medmodel.MonthError {
	sort.Slice(fails, func(a, b int) bool { return fails[a].Month < fails[b].Month })
	return fails
}

func monthDetail(i int) string { return fmt.Sprintf("month-%d", i) }
