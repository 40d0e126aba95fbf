package stat_test

import (
	"fmt"

	"mictrend/internal/stat"
)

func ExamplePairedTTest() {
	proposed := []float64{110, 113, 108, 112, 115, 111}
	baseline := []float64{168, 170, 160, 166, 172, 169}
	res, _ := stat.PairedTTest(proposed, baseline)
	fmt.Printf("significant at 0.05: %v\n", res.Significant(0.05))
	fmt.Printf("direction: t < 0 is %v\n", res.T < 0)
	// Output:
	// significant at 0.05: true
	// direction: t < 0 is true
}

func ExampleConfusionMatrix_CohensKappa() {
	// Exact vs approximate change point detection outcomes.
	var cm stat.ConfusionMatrix
	for i := 0; i < 423; i++ {
		cm.Add(true, true)
	}
	for i := 0; i < 40; i++ {
		cm.Add(true, false)
	}
	for i := 0; i < 3515; i++ {
		cm.Add(false, false)
	}
	fmt.Printf("kappa = %.3f\n", cm.CohensKappa())
	fmt.Printf("false positives = %d\n", cm.NegPos)
	// Output:
	// kappa = 0.949
	// false positives = 0
}
