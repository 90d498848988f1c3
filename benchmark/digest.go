package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"dynopt"
)

// pinnedJSON holds the expected row digest of every query at every scale the
// benchmark and its smoke test run, keyed "sf<N>/<query>". Regenerate with
// -pin after changing a data generator or a query.
//
//go:embed testdata/digests.json
var pinnedJSON []byte

func loadPinned() (map[string]string, error) {
	pinned := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return pinned, nil
}

func digestKey(sf int, query string) string { return fmt.Sprintf("sf%d/%s", sf, query) }

// rowDigest is order-insensitive: the wrapping sum of each row's FNV-1a hash,
// with the row count, so plans that emit the same rows in a different
// partition order agree and a dropped or duplicated row does not.
func rowDigest(res *dynopt.Result) string {
	var sum uint64
	h := fnv.New64a()
	for _, row := range res.Rows {
		h.Reset()
		h.Write([]byte(row.String()))
		sum += h.Sum64()
	}
	return fmt.Sprintf("%d:%016x", len(res.Rows), sum)
}
