package fed

import (
	"peoplesnet/internal/chain"
	"peoplesnet/internal/etl"
)

// NumRegions is the size of the geographic routing vocabulary
// (etl.NumRegions).
const NumRegions = etl.NumRegions

// RegionOf maps a transaction to its routing region (etl.RegionOf).
func RegionOf(t chain.Txn) int { return etl.RegionOf(t) }
