package core

// Stats summarises a region index: the area and region counts of the
// annotation layer, whether any area is non-contiguous, the document size,
// and the per-tag element cardinalities taken from the tree dictionary.
//
// Stats is computed once per index and shared; callers must treat
// ElementCard as read-only.
type Stats struct {
	// Areas is the number of area-annotations (NumAreas).
	Areas int
	// Regions is the number of region rows (NumRegions, >= Areas).
	Regions int
	// MultiRegion reports whether any area has more than one region.
	MultiRegion bool
	// DocNodes is the node count of the indexed document.
	DocNodes int
	// ElementCard maps each element name that occurs in the document to its
	// element cardinality (per the tree dictionary's element-name index).
	// Names that never occur as elements are absent.
	ElementCard map[string]int
}

// Card returns the element cardinality of name (0 when absent).
func (s Stats) Card(name string) int { return s.ElementCard[name] }

// IndexGen is the generation token of a region index: a comparable value
// identifying the (document, options) pair the index was built from. Two
// indexes built over the same document under the same options carry equal
// tokens — and, the index being a pure function of both, identical
// statistics; the token holds no pointer that would pin a dead document or
// index. Annotation writes derive new document snapshots sharing the
// ancestor's order key but bumping a mutation sequence number; seq folds that
// in, so a write changes the generation while compaction (same snapshot, same
// options) keeps it.
type IndexGen struct {
	doc  int64  // tree.Doc.OrderKey: unique per document construction
	seq  uint64 // tree.Doc.MutSeq: bumped by every snapshot derivation
	opts Options
}

// Gen returns the index's generation token.
func (ix *RegionIndex) Gen() IndexGen {
	return IndexGen{doc: ix.doc.OrderKey(), seq: ix.doc.MutSeq(), opts: ix.opts}
}

// Stats returns the index statistics, computed on first use. The result is
// safe to share: the index is immutable after Build. A delta index reads its
// carried live counts and the snapshot's per-name element lists, which each
// write derives from its parent's — no merge, no rescan.
func (ix *RegionIndex) Stats() Stats {
	ix.statsOnce.Do(func() {
		d := ix.doc
		card := map[string]int{}
		for id := int32(0); id < int32(d.Dict().Len()); id++ {
			if n := len(d.ElementsByName(id)); n > 0 {
				card[d.Dict().Name(id)] = n
			}
		}
		ix.stats = Stats{
			Areas:       ix.NumAreas(),
			Regions:     ix.NumRegions(),
			MultiRegion: ix.multiRegion,
			DocNodes:    d.NumNodes(),
			ElementCard: card,
		}
	})
	return ix.stats
}
