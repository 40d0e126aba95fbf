package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func relSet(items ...string) map[string]bool {
	m := make(map[string]bool, len(items))
	for _, it := range items {
		m[it] = true
	}
	return m
}

func TestAveragePrecisionPerfectRanking(t *testing.T) {
	ranked := []string{"a", "b", "c", "d"}
	if got := AveragePrecisionAt(ranked, relSet("a", "b"), 10); got != 1 {
		t.Fatalf("AP = %v, want 1", got)
	}
}

func TestAveragePrecisionWorstRanking(t *testing.T) {
	ranked := []string{"x", "y", "z", "a"}
	// Single relevant item at rank 4: AP = (1/4)/1 = 0.25.
	if got := AveragePrecisionAt(ranked, relSet("a"), 10); got != 0.25 {
		t.Fatalf("AP = %v, want 0.25", got)
	}
}

func TestAveragePrecisionKnownMixed(t *testing.T) {
	// Relevant at ranks 1 and 3 of 2 relevant: (1/1 + 2/3)/2 = 5/6.
	ranked := []string{"a", "x", "b"}
	if got := AveragePrecisionAt(ranked, relSet("a", "b"), 10); math.Abs(got-5.0/6.0) > 1e-12 {
		t.Fatalf("AP = %v, want 5/6", got)
	}
}

func TestAveragePrecisionCutoff(t *testing.T) {
	// Relevant item beyond the cutoff does not count.
	ranked := []string{"x", "y", "a"}
	if got := AveragePrecisionAt(ranked, relSet("a"), 2); got != 0 {
		t.Fatalf("AP@2 = %v, want 0", got)
	}
}

func TestAveragePrecisionNormalizesByCutoff(t *testing.T) {
	// 15 relevant items but K=10: a ranking with 10 relevant in the top 10
	// should be perfect.
	ranked := make([]string, 10)
	rel := map[string]bool{}
	for i := range ranked {
		id := string(rune('a' + i))
		ranked[i] = id
		rel[id] = true
	}
	for i := 10; i < 15; i++ {
		rel[string(rune('a'+i))] = true
	}
	if got := AveragePrecisionAt(ranked, rel, 10); got != 1 {
		t.Fatalf("AP@10 = %v, want 1", got)
	}
}

func TestAveragePrecisionEdgeCases(t *testing.T) {
	if got := AveragePrecisionAt([]string{"a"}, nil, 10); got != 0 {
		t.Fatalf("no relevant = %v", got)
	}
	if got := AveragePrecisionAt([]string{"a"}, relSet("a"), 0); got != 0 {
		t.Fatalf("k=0 = %v", got)
	}
	if got := AveragePrecisionAt(nil, relSet("a"), 10); got != 0 {
		t.Fatalf("empty ranking = %v", got)
	}
	// Explicit false entries count as irrelevant.
	rel := map[string]bool{"a": false}
	if got := AveragePrecisionAt([]string{"a"}, rel, 10); got != 0 {
		t.Fatalf("false relevance = %v", got)
	}
}

func TestNDCGPerfectAndWorst(t *testing.T) {
	ranked := []string{"a", "b", "x", "y"}
	if got := NDCGAt(ranked, relSet("a", "b"), 10); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect NDCG = %v", got)
	}
	// Both relevant at the bottom of a 4-item list.
	worst := []string{"x", "y", "a", "b"}
	dcg := 1/math.Log2(4) + 1/math.Log2(5)
	idcg := 1/math.Log2(2) + 1/math.Log2(3)
	if got := NDCGAt(worst, relSet("a", "b"), 10); math.Abs(got-dcg/idcg) > 1e-12 {
		t.Fatalf("worst NDCG = %v, want %v", got, dcg/idcg)
	}
}

func TestNDCGCutoff(t *testing.T) {
	ranked := []string{"x", "a"}
	if got := NDCGAt(ranked, relSet("a"), 1); got != 0 {
		t.Fatalf("NDCG@1 = %v, want 0", got)
	}
}

func TestNDCGEdgeCases(t *testing.T) {
	if got := NDCGAt([]string{"a"}, nil, 5); got != 0 {
		t.Fatalf("no relevant = %v", got)
	}
	if got := NDCGAt(nil, relSet("a"), 5); got != 0 {
		t.Fatalf("empty ranking = %v", got)
	}
}

// Property: both metrics are within [0,1] and a ranking with a relevant item
// promoted never scores lower than the same ranking with it demoted.
func TestRankMetricsBoundedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 3 + int(seed%8)
		ranked := make([]string, n)
		for i := range ranked {
			ranked[i] = string(rune('a' + i))
		}
		rel := relSet(ranked[n-1]) // last item relevant
		apLow := AveragePrecisionAt(ranked, rel, n)
		ndcgLow := NDCGAt(ranked, rel, n)
		// Promote the relevant item to the front.
		promoted := append([]string{ranked[n-1]}, ranked[:n-1]...)
		apHigh := AveragePrecisionAt(promoted, rel, n)
		ndcgHigh := NDCGAt(promoted, rel, n)
		inRange := func(v float64) bool { return v >= 0 && v <= 1 }
		return inRange(apLow) && inRange(apHigh) && inRange(ndcgLow) && inRange(ndcgHigh) &&
			apHigh >= apLow && ndcgHigh >= ndcgLow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPerplexityUniform(t *testing.T) {
	// Uniform probability 1/V over N observations gives perplexity V.
	var acc PerplexityAccumulator
	for i := 0; i < 20; i++ {
		acc.Add(1.0 / 50)
	}
	got, err := acc.Perplexity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-50) > 1e-9 {
		t.Fatalf("perplexity = %v, want 50", got)
	}
}

func TestPerplexityCertainModel(t *testing.T) {
	var acc PerplexityAccumulator
	acc.Add(1)
	acc.Add(1)
	got, err := acc.Perplexity()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("perplexity = %v, want 1", got)
	}
}

func TestPerplexityEmpty(t *testing.T) {
	var acc PerplexityAccumulator
	if _, err := acc.Perplexity(); err == nil {
		t.Fatal("empty accumulator should error")
	}
}

func TestPerplexityClampsZeroProb(t *testing.T) {
	var acc PerplexityAccumulator
	acc.Add(0)
	got, err := acc.Perplexity()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("perplexity = %v, want finite", got)
	}
	if got < 1e100 {
		t.Fatalf("perplexity = %v, want huge", got)
	}
}
