// Package engine (fixture) exercises metersize: its import path ends in
// internal/engine, so direct size walks are banned here.
package engine

type tuple []int

func (t tuple) EncodedSize() int { return len(t) }

func (t tuple) EncodedSizeCols(cols []int) int { return len(cols) }

func bytesOf(t tuple) int { return len(t) }

func bad(t tuple) int {
	return t.EncodedSize() // want `direct EncodedSize call`
}

func alsoBad(t tuple) int {
	return bytesOf(t) // want `direct bytesOf call`
}

func projectedBad(t tuple, proj []int) int {
	return t.EncodedSizeCols(proj) // want `direct EncodedSizeCols call`
}

func projectedSeeding(t tuple, proj []int) int {
	return t.EncodedSizeCols(proj) //dynopt:size-ok fixture stands in for the scatter's one sizing walk
}

func seeding(t tuple) int {
	return t.EncodedSize() //dynopt:size-ok fixture stands in for the one cache-seeding pass
}
