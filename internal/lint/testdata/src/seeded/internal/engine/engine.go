// Package engine (seeded) deliberately violates the metersize and ctxcancel
// contracts for the CI self-test.
package engine

type row []byte

func (r row) EncodedSize() int { return len(r) }

func (r row) EncodedSizeCols(cols []int) int { return len(cols) }

// sizeThroughMap sizes a stored row over a projection map without a
// //dynopt:size-ok sanction.
func sizeThroughMap(r row, proj []int) int {
	return r.EncodedSizeCols(proj) // metersize must fire here too
}

type cursor struct{}

func (*cursor) Next() (row, error) { return nil, nil }

func pump(c *cursor) int {
	total := 0
	for { // ctxcancel must fire here
		r, err := c.Next()
		if err != nil {
			return total
		}
		total += r.EncodedSize() // metersize must fire here
	}
}
