package micgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"mictrend/internal/mic"
)

// Config parameterizes corpus generation. Zero values select defaults that
// produce a laptop-scale corpus with the same structure as the paper's
// 43-month Mie dataset.
type Config struct {
	Seed             uint64
	Months           int // default 43 (the paper's period length)
	RecordsPerMonth  int // default 2000
	Patients         int // default 3×RecordsPerMonth
	HospitalsPerCity int // default 6
	BulkDiseases     int // procedurally generated diseases beyond the scenarios; default 60
	BulkMedicines    int // default 80
	// MisuseProb is the probability, per hospital class (small, medium,
	// large), that a viral diagnosis is nevertheless treated with the
	// antibiotic — the §VII-C inter-hospital gap phenomenon.
	MisuseProb [3]float64
	// Catalog overrides the default catalog when non-nil.
	Catalog *Catalog
}

func (c Config) withDefaults() Config {
	if c.Months <= 0 {
		c.Months = 43
	}
	if c.RecordsPerMonth <= 0 {
		c.RecordsPerMonth = 2000
	}
	if c.Patients <= 0 {
		c.Patients = 3 * c.RecordsPerMonth
	}
	if c.HospitalsPerCity <= 0 {
		c.HospitalsPerCity = 6
	}
	if c.BulkDiseases < 0 {
		c.BulkDiseases = 0
	}
	if c.BulkMedicines < 0 {
		c.BulkMedicines = 0
	}
	if c.BulkDiseases == 0 && c.Catalog == nil {
		c.BulkDiseases = 60
	}
	if c.BulkMedicines == 0 && c.Catalog == nil {
		c.BulkMedicines = 80
	}
	if c.MisuseProb == [3]float64{} {
		c.MisuseProb = [3]float64{0.35, 0.12, 0.02}
	}
	return c
}

// patient is the persistent state behind recurring records.
type patient struct {
	city     int   // index into catalog.Cities
	hospital int   // preferred hospital (index into dataset hospital table)
	chronic  []int // catalog disease indices that recur monthly
	visitP   float64
}

// Generator produces a synthetic corpus one month at a time, so
// population-scale corpora stream straight into a mic.StreamWriter without
// ever materializing all months in RAM. The month sequence — and Generate's
// collected dataset — is a pure function of Config: the RNG draw order is
// identical whether months are collected or streamed.
type Generator struct {
	cfg          Config
	rng          *rand.Rand
	catalog      *Catalog
	ds           *mic.Dataset // vocab + hospitals only; months stay with the caller
	truth        *Truth
	hospitalCity [][]int
	patients     []patient
	byDisease    [][]int
	next         int
}

// NewGenerator prepares the catalog, vocabularies, hospital table, and
// patient pool. Months are then produced in order by NextMonth.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x6d69637472656e64)) // "mictrend"

	catalog := cfg.Catalog
	if catalog == nil {
		catalog = NewCatalog(cfg.Months, cfg.BulkDiseases, cfg.BulkMedicines, rng)
	}
	if err := catalog.Validate(); err != nil {
		return nil, err
	}

	ds := mic.NewDataset()
	truth := newTruth(catalog, cfg.Months)
	if hasDiagShift(catalog) {
		truth.Changes = append(truth.Changes, TrueChange{
			Kind: ChangeDiagShift, Disease: DiseaseOralFeeding, Month: DiagShiftMonth,
		})
	}

	// Intern all catalog codes up front so vocabulary ids equal catalog
	// indices, which keeps lookups O(1) everywhere below.
	for _, d := range catalog.Diseases {
		ds.Diseases.Intern(d.Code)
	}
	for _, m := range catalog.Medicines {
		ds.Medicines.Intern(m.Code)
	}

	hospitals, hospitalCity := buildHospitals(ds, catalog, cfg.HospitalsPerCity, rng)
	patients := buildPatients(catalog, hospitals, hospitalCity, cfg.Patients, rng)

	return &Generator{
		cfg:          cfg,
		rng:          rng,
		catalog:      catalog,
		ds:           ds,
		truth:        truth,
		hospitalCity: hospitalCity,
		patients:     patients,
		// Medicines indexed by indicated disease for candidate lookup.
		byDisease: indicationIndex(catalog),
	}, nil
}

// Meta returns the stream metadata (month count, vocabularies, hospitals)
// a mic.StreamWriter needs before the first month.
func (g *Generator) Meta() mic.StreamMeta {
	return mic.StreamMeta{
		Months:    g.cfg.Months,
		Diseases:  g.ds.Diseases.Codes(),
		Medicines: g.ds.Medicines.Codes(),
		Hospitals: g.ds.Hospitals,
	}
}

// Truth returns the ground truth; it is complete only after every month has
// been generated.
func (g *Generator) Truth() *Truth { return g.truth }

// NextMonth generates the next month, or nil after the last one.
func (g *Generator) NextMonth() *mic.Monthly {
	if g.next >= g.cfg.Months {
		return nil
	}
	t := g.next
	g.next++
	cfg, rng, catalog, ds, truth := g.cfg, g.rng, g.catalog, g.ds, g.truth

	month := &mic.Monthly{Month: t}
	// Precompute acute disease sampling weights for this month.
	acuteWeights := make([]float64, len(catalog.Diseases))
	var acuteTotal float64
	for i := range catalog.Diseases {
		d := &catalog.Diseases[i]
		if d.Chronic {
			continue
		}
		w := seasonalWeight(d, t)
		acuteWeights[i] = w
		acuteTotal += w
	}

	for rec := 0; rec < cfg.RecordsPerMonth; rec++ {
		p := &g.patients[rng.IntN(len(g.patients))]
		if rng.Float64() > p.visitP {
			// A non-visiting draw still consumes a slot so record volume
			// fluctuates realistically month to month.
			continue
		}
		hospital := p.hospital
		if rng.Float64() < 0.15 {
			// Occasional visit to another hospital in the same city.
			hospital = randomHospitalInCity(g.hospitalCity, p.city, rng, hospital)
		}
		class := ds.Hospitals[hospital].Class()

		record := mic.Record{Hospital: mic.HospitalID(hospital), Patient: int32(rng.IntN(len(g.patients)))}
		diseaseCounts := map[int]int{}

		// Chronic conditions recur with high probability.
		for _, di := range p.chronic {
			if rng.Float64() < 0.85 {
				diseaseCounts[di] += 1 + rng.IntN(2)
			}
		}
		// Acute diagnoses: Poisson-ish count from the seasonal mix.
		nAcute := poisson(rng, 1.4)
		for a := 0; a < nAcute && acuteTotal > 0; a++ {
			di := sampleWeighted(rng, acuteWeights, acuteTotal)
			di = applyDiagShift(catalog, di, t, rng)
			diseaseCounts[di]++
		}
		if len(diseaseCounts) == 0 {
			continue
		}

		// Medication per disease mention. Iterate in sorted order so the
		// RNG stream — and therefore the whole corpus — is deterministic.
		diseaseOrder := make([]int, 0, len(diseaseCounts))
		for di := range diseaseCounts {
			diseaseOrder = append(diseaseOrder, di)
		}
		sort.Ints(diseaseOrder)
		for _, di := range diseaseOrder {
			count := diseaseCounts[di]
			record.Diseases = append(record.Diseases, mic.DiseaseCount{
				Disease: mic.DiseaseID(di), Count: count,
			})
			d := &catalog.Diseases[di]
			medP := d.MedicationProb
			if medP == 0 {
				medP = DefaultMedicationProb
			}
			for c := 0; c < count; c++ {
				if rng.Float64() > medP {
					continue
				}
				mi := chooseMedicine(catalog, g.byDisease, di, t, p.city, rng)
				if mi < 0 {
					continue
				}
				record.Medicines = append(record.Medicines, mic.MedicineID(mi))
				truth.addLink(Pair{Disease: mic.DiseaseID(di), Medicine: mic.MedicineID(mi)}, t)
			}
			// Antibiotic misuse: viral diseases sometimes get the
			// antibiotic anyway, more often at small hospitals.
			if d.Viral && rng.Float64() < cfg.MisuseProb[class] {
				if abxID, ok := catalog.medicineIdx[MedicineAntibiotic]; ok && availability(&catalog.Medicines[abxID], t) > 0 {
					record.Medicines = append(record.Medicines, mic.MedicineID(abxID))
					truth.addLink(Pair{Disease: mic.DiseaseID(di), Medicine: mic.MedicineID(abxID)}, t)
				}
			}
		}
		if len(record.Medicines) == 0 {
			continue
		}
		month.Records = append(month.Records, record)
	}
	return month
}

// Generate builds a synthetic MIC dataset plus its ground truth. The same
// Config always yields the same corpus — and the same months a Generator's
// NextMonth yields.
func Generate(cfg Config) (*mic.Dataset, *Truth, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, nil, err
	}
	ds := g.ds
	for m := g.NextMonth(); m != nil; m = g.NextMonth() {
		ds.Months = append(ds.Months, m)
	}
	if err := ds.Validate(); err != nil {
		return nil, nil, fmt.Errorf("micgen: generated dataset invalid: %w", err)
	}
	return ds, g.truth, nil
}

func hasDiagShift(c *Catalog) bool {
	_, okOral := c.DiseaseByCode(DiseaseOralFeeding)
	_, okDehy := c.DiseaseByCode(DiseaseDehydration)
	return okOral && okDehy
}

// applyDiagShift progressively relabels dehydration diagnoses as oral
// feeding difficulty after DiagShiftMonth — the paper's Fig. 7b "possible
// trend change in diagnostics".
func applyDiagShift(c *Catalog, di, t int, rng *rand.Rand) int {
	if t < DiagShiftMonth {
		return di
	}
	if c.Diseases[di].Code != DiseaseDehydration {
		return di
	}
	oral, ok := c.diseaseIdx[DiseaseOralFeeding]
	if !ok {
		return di
	}
	p := math.Min(0.8, 0.08*float64(t-DiagShiftMonth+1))
	if rng.Float64() < p {
		return oral
	}
	return di
}

// buildHospitals creates HospitalsPerCity hospitals per city with a bed-size
// mix (≈60% small clinics, 30% medium, 10% large) and returns the hospital
// count and a per-city hospital index.
func buildHospitals(ds *mic.Dataset, c *Catalog, perCity int, rng *rand.Rand) (int, [][]int) {
	hospitalCity := make([][]int, len(c.Cities))
	n := 0
	for ci, city := range c.Cities {
		for h := 0; h < perCity; h++ {
			var beds int
			switch r := rng.Float64(); {
			case r < 0.6:
				beds = 3 + rng.IntN(15)
			case r < 0.9:
				beds = 30 + rng.IntN(300)
			default:
				beds = 450 + rng.IntN(400)
			}
			id := ds.AddHospital(mic.Hospital{
				Code: fmt.Sprintf("H-%s-%02d", city.Name, h),
				City: city.Name,
				Beds: beds,
			})
			hospitalCity[ci] = append(hospitalCity[ci], int(id))
			n++
		}
	}
	return n, hospitalCity
}

// buildPatients creates the persistent patient pool: home city (weighted by
// city population), preferred hospital, chronic disease burden, and a visit
// propensity.
func buildPatients(c *Catalog, _ int, hospitalCity [][]int, n int, rng *rand.Rand) []patient {
	cityWeights := make([]float64, len(c.Cities))
	var cityTotal float64
	for i, city := range c.Cities {
		w := city.Weight
		if w <= 0 {
			w = 1
		}
		cityWeights[i] = w
		cityTotal += w
	}
	var chronicIdx []int
	chronicWeights := []float64{}
	var chronicTotal float64
	for i := range c.Diseases {
		if c.Diseases[i].Chronic {
			chronicIdx = append(chronicIdx, i)
			chronicWeights = append(chronicWeights, c.Diseases[i].Prevalence)
			chronicTotal += c.Diseases[i].Prevalence
		}
	}
	patients := make([]patient, n)
	for i := range patients {
		ci := sampleWeighted(rng, cityWeights, cityTotal)
		p := patient{
			city:   ci,
			visitP: 0.5 + rng.Float64()*0.5, // elderly visit frequently
		}
		p.hospital = hospitalCity[ci][rng.IntN(len(hospitalCity[ci]))]
		// Elderly patients carry 0–4 chronic conditions.
		nChronic := rng.IntN(5)
		seen := map[int]bool{}
		for j := 0; j < nChronic && chronicTotal > 0; j++ {
			di := chronicIdx[sampleWeighted(rng, chronicWeights, chronicTotal)]
			if !seen[di] {
				seen[di] = true
				p.chronic = append(p.chronic, di)
			}
		}
		patients[i] = p
	}
	return patients
}

// randomHospitalInCity picks a hospital in city ci, preferring one other
// than current when the city has more than one.
func randomHospitalInCity(hospitalCity [][]int, ci int, rng *rand.Rand, current int) int {
	list := hospitalCity[ci]
	if len(list) <= 1 {
		return current
	}
	for tries := 0; tries < 4; tries++ {
		h := list[rng.IntN(len(list))]
		if h != current {
			return h
		}
	}
	return current
}

// indicationIndex maps each catalog disease index to the medicines that can
// (ever) be prescribed for it.
func indicationIndex(c *Catalog) [][]int {
	byDisease := make([][]int, len(c.Diseases))
	for mi := range c.Medicines {
		for _, ind := range c.Medicines[mi].Indications {
			di := c.diseaseIdx[ind.Disease]
			byDisease[di] = append(byDisease[di], mi)
		}
	}
	return byDisease
}

// chooseMedicine samples a medicine for disease di at month t in city ci, or
// returns -1 when nothing is available. Weights combine indication weight
// (with expansion ramps), availability (with release ramps and price cuts),
// popularity, and — for generics — the city's adoption lag and resistance.
func chooseMedicine(c *Catalog, byDisease [][]int, di, t, ci int, rng *rand.Rand) int {
	candidates := byDisease[di]
	if len(candidates) == 0 {
		return -1
	}
	dCode := c.Diseases[di].Code
	weights := make([]float64, len(candidates))
	var total float64
	for k, mi := range candidates {
		m := &c.Medicines[mi]
		effT := t
		genericMult := 1.0
		if m.GenericOf != "" {
			city := &c.Cities[ci]
			effT = t - city.GenericLag
			genericMult = city.GenericResistance
			if genericMult <= 0 {
				genericMult = 0.05
			}
			if m.Authorized {
				genericMult *= 1.7
			}
		}
		avail := availability(m, effT)
		if avail <= 0 {
			continue
		}
		var indW float64
		for j := range m.Indications {
			if m.Indications[j].Disease == dCode {
				indW = indicationWeight(&m.Indications[j], t)
				break
			}
		}
		if indW <= 0 {
			continue
		}
		w := indW * avail * m.Popularity * genericMult
		weights[k] = w
		total += w
	}
	if total <= 0 {
		return -1
	}
	// A "no prescription" pseudo-candidate keeps selection from being fully
	// normalized: a newly released medicine with tiny availability must not
	// capture its disease's whole prescription volume on day one just
	// because it is the only option. This is what turns release ramps into
	// visible uptake curves in the marginal medicine series.
	const noneWeight = 0.35
	if r := rng.Float64() * (total + noneWeight); r >= total {
		return -1
	}
	return candidates[sampleWeighted(rng, weights, total)]
}

// sampleWeighted draws an index proportional to weights (which sum to
// total). Zero-weight entries are never selected.
func sampleWeighted(rng *rand.Rand, weights []float64, total float64) int {
	r := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	// Floating point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return 0
}

// poisson draws from Poisson(lambda) by inversion; adequate for small
// lambda.
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 100 {
			return k
		}
	}
}
