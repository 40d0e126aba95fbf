package changepoint

import (
	"context"
	"testing"

	"mictrend/internal/ssm"
)

// TestExactProvenanceLadder pins the serial record: one cold rung per
// evaluation in serial order (no-change first, then candidates ascending),
// with the outcome fields mirroring the Result.
func TestExactProvenanceLadder(t *testing.T) {
	const n = 43
	var p Provenance
	res, err := exact(n, valleyAIC(20, 30, 100), &p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != "exact" || p.N != n {
		t.Fatalf("header = %q/%d", p.Method, p.N)
	}
	if len(p.Candidates) != res.Fits {
		t.Fatalf("%d rungs, want %d", len(p.Candidates), res.Fits)
	}
	for i, c := range p.Candidates {
		wantCP := i - 1
		if i == 0 {
			wantCP = ssm.NoChangePoint
		}
		if c.CP != wantCP || c.Path != PathCold || c.WarmAIC != 0 {
			t.Fatalf("rung %d = %+v, want cp %d cold", i, c, wantCP)
		}
		wantAIC, _ := valleyAIC(20, 30, 100)(c.CP)
		if c.AIC != wantAIC {
			t.Fatalf("rung %d AIC %v, want %v", i, c.AIC, wantAIC)
		}
	}
	if p.ChangePoint != res.ChangePoint || p.AIC != res.AIC ||
		p.NoChangeAIC != res.NoChangeAIC || p.Fits != res.Fits {
		t.Fatalf("outcome %+v does not mirror result %+v", p, res)
	}
	if len(p.Steps) != 0 {
		t.Fatalf("exact scan recorded %d bisection steps", len(p.Steps))
	}
}

// TestBinaryProvenanceTrail pins Algorithm 2's record: the ladder holds the
// distinct evaluations in visit order (probe path), and Steps replays the
// bisection — each interval is a valid sub-interval of its predecessor, its
// endpoint AICs match the ladder, and the surviving half follows the
// lower-AIC endpoint.
func TestBinaryProvenanceTrail(t *testing.T) {
	const n = 43
	f := valleyAIC(20, 30, 100)
	var p Provenance
	res, err := binary(n, f, &p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Method != "binary" {
		t.Fatalf("method %q", p.Method)
	}
	if len(p.Candidates) != res.Fits {
		t.Fatalf("%d rungs, want %d (distinct evaluations)", len(p.Candidates), res.Fits)
	}
	seen := map[int]float64{}
	for i, c := range p.Candidates {
		if c.Path != PathProbe {
			t.Fatalf("rung %d path %q, want probe", i, c.Path)
		}
		if _, dup := seen[c.CP]; dup {
			t.Fatalf("cp %d recorded twice: memoized hits must not repeat", c.CP)
		}
		seen[c.CP] = c.AIC
	}
	if len(p.Steps) == 0 {
		t.Fatal("no bisection steps recorded")
	}
	prev := BinaryStep{Left: 0, Right: maxCandidate(n)}
	for i, s := range p.Steps {
		if s.Left != prev.Left || s.Right != prev.Right {
			t.Fatalf("step %d interval [%d,%d], want the surviving half [%d,%d]",
				i, s.Left, s.Right, prev.Left, prev.Right)
		}
		if s.AICLeft != seen[s.Left] || s.AICRight != seen[s.Right] {
			t.Fatalf("step %d endpoint AICs %v/%v disagree with ladder %v/%v",
				i, s.AICLeft, s.AICRight, seen[s.Left], seen[s.Right])
		}
		middle := (s.Left + s.Right) / 2
		switch s.Move {
		case "left":
			if !(s.AICLeft < s.AICRight) {
				t.Fatalf("step %d pruned right without AIC support: %+v", i, s)
			}
			prev = BinaryStep{Left: s.Left, Right: middle}
		case "right":
			if s.AICLeft < s.AICRight {
				t.Fatalf("step %d pruned left without AIC support: %+v", i, s)
			}
			prev = BinaryStep{Left: middle, Right: s.Right}
		case "leaf-left", "leaf-right":
			if i != len(p.Steps)-1 {
				t.Fatalf("leaf step %d is not last", i)
			}
			leaf := s.Left
			if s.Move == "leaf-right" {
				leaf = s.Right
			}
			if res.Detected() && res.ChangePoint != leaf {
				t.Fatalf("leaf selected %d but result has %d", leaf, res.ChangePoint)
			}
		default:
			t.Fatalf("step %d unknown move %q", i, s.Move)
		}
	}
	if res.ChangePoint != 20 {
		t.Fatalf("cp = %d, want 20", res.ChangePoint)
	}
}

// TestDetectProvenanceSelectedParams pins the Detect-level additions: the
// record carries the model flavor and a parameter vector for the selected
// configuration, for every search method.
func TestDetectProvenanceSelectedParams(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real scans")
	}
	y := randomSeries(5, 24)
	for _, method := range []SearchMethod{SearchExact, SearchBinary, SearchExactPrefix} {
		var p Provenance
		res, err := Detect(context.Background(), y, DetectOptions{Method: method, Provenance: &p})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if p.Method != method.String() {
			t.Fatalf("method %q, want %q", p.Method, method)
		}
		if len(p.Params) == 0 {
			t.Fatalf("%v: no selected-model parameters recorded", method)
		}
		if p.ChangePoint != res.ChangePoint || p.AIC != res.AIC {
			t.Fatalf("%v: provenance outcome %d/%v != result %d/%v",
				method, p.ChangePoint, p.AIC, res.ChangePoint, res.AIC)
		}
	}
}
