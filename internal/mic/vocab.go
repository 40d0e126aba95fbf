package mic

import "fmt"

// Vocab is a bidirectional mapping between external string codes (e.g. a
// disease or medicine code) and dense integer identifiers.
type Vocab struct {
	byCode map[string]int32
	codes  []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{byCode: make(map[string]int32)}
}

// Intern returns the identifier for code, assigning the next dense id on
// first sight.
func (v *Vocab) Intern(code string) int32 {
	if id, ok := v.byCode[code]; ok {
		return id
	}
	id := int32(len(v.codes))
	v.byCode[code] = id
	v.codes = append(v.codes, code)
	return id
}

// Lookup returns the identifier for code and whether it is known.
func (v *Vocab) Lookup(code string) (int32, bool) {
	id, ok := v.byCode[code]
	return id, ok
}

// Code returns the external code for id. It panics on an out-of-range id.
func (v *Vocab) Code(id int32) string {
	if id < 0 || int(id) >= len(v.codes) {
		panic(fmt.Sprintf("mic: vocab id %d out of range (size %d)", id, len(v.codes)))
	}
	return v.codes[id]
}

// Len returns the number of interned codes.
func (v *Vocab) Len() int { return len(v.codes) }

// Truncate forgets every code with id ≥ n, so the next new code gets id n
// again. It panics if n is negative or exceeds Len.
func (v *Vocab) Truncate(n int) {
	for _, code := range v.codes[n:] {
		delete(v.byCode, code)
	}
	v.codes = v.codes[:n]
}

// Codes returns a copy of all interned codes in id order.
func (v *Vocab) Codes() []string {
	return append([]string(nil), v.codes...)
}
