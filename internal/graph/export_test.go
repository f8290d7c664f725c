package graph

import "unsafe"

// The page geometry, for the allocation budgets of the external tests.
const (
	PageSize      = pageSize
	HalfPageBytes = int(unsafe.Sizeof(page[[]Half]{}) + pageSize*unsafe.Sizeof([]Half{}))
)
