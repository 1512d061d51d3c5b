package core

// QueryScratch holds the reusable per-query buffers of the center stage —
// the box-partition key/histogram state, the rotation buffer, the per-axis
// interval histogram, and the chosen box's member list. A warm query that
// threads one through Params.Scratch allocates close to nothing in
// GoodCenter's hot passes; buffers grow to the dataset's high-water mark and
// are then reused verbatim.
//
// A QueryScratch must not be used by two queries concurrently — pool them
// (the Dataset handle keeps a sync.Pool) or use one per goroutine. Reuse
// never changes releases: every buffer is fully overwritten or cleared
// before it is read, so the values flowing into the private mechanisms are
// identical with or without scratch.
type QueryScratch struct {
	// rotBuf backs the rotated cluster points of GoodCenter steps 8–9.
	rotBuf []float64
	// axisHist is the per-axis interval histogram, cleared per axis.
	axisHist map[int64]int
	// keys, hist, locals back the box-partition engine.
	keys   []uint64
	hist   map[uint64]int
	locals []map[uint64]int
	// members backs the chosen box's member-id list.
	members []int
}

// NewQueryScratch returns an empty scratch; buffers are grown on first use.
func NewQueryScratch() *QueryScratch { return &QueryScratch{} }
