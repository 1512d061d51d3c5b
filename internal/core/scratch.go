package core

// QueryScratch holds the reusable per-query buffers of the center stage —
// the box keys and count tables of the partition engine, one interval
// table per axis, the one-row rotation buffer, the per-axis sort buffers,
// and the chosen box's member list. A warm query that threads one through
// Params.Scratch allocates close to nothing in GoodCenter's hot passes;
// buffers grow to the dataset's high-water mark and are then reused
// verbatim.
//
// A QueryScratch must not be used by two queries concurrently — pool them
// (the Dataset handle keeps a sync.Pool) or use one per goroutine. Reuse
// never changes releases: every buffer is fully overwritten or reset
// before it is read, so the values flowing into the private mechanisms are
// identical with or without scratch.
type QueryScratch struct {
	// keys and locals back the box-partition engine; hist holds its box
	// counts, then axis 0's interval counts of steps 8–9 (the box choice
	// is done by then).
	keys   []uint64
	hist   countTable
	locals []countTable
	// axes holds the interval counts of axes 1..d−1, rot the one rotated
	// member row they are binned from, and axisKeys/axisCounts one axis's
	// occupied intervals in ascending order.
	axes       []countTable
	rot        []float64
	axisKeys   []int64
	axisCounts []int
	// members backs the chosen box's member-id list.
	members []int
}

// NewQueryScratch returns an empty scratch; buffers are grown on first use.
func NewQueryScratch() *QueryScratch { return &QueryScratch{} }
