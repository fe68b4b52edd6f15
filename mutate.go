package soxq

import (
	"errors"
	"fmt"
	"sync"

	"soxq/internal/core"
	"soxq/internal/interval"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
)

// Annotation write path. InsertAnnotation and DeleteAnnotation mutate a
// loaded document without rebuilding its region indexes: the document gains
// an append-only snapshot (tree.Appender) or a tombstone snapshot
// (tree.WithTombstones), and every cached index under the engine's current
// options is re-derived as a delta layer (core.ApplyInsert/ApplyDelete) that
// reads merge LSM-style with the base, one annotation layer at a time.
// Queries already in flight keep draining the snapshot they resolved — a
// mutation lands a new generation, it never disturbs an old one. Deltas fold
// into a fresh base when they reach the auto-compaction threshold (or on
// CompactAnnotations).

// Region is one [start, end] annotation region, in the engine's configured
// position domain (integers by default; dateTime/timecode positions convert
// via the standoff-type option's formatting).
type Region struct {
	Start int64
	End   int64
}

// ErrInvalidAnnotationName is returned (wrapped) by InsertAnnotation when the
// element name is not an XML name the parser would read back: the snapshot
// must keep serialising to well-formed XML.
var ErrInvalidAnnotationName = errors.New("soxq: invalid annotation element name")

// DefaultCompactThreshold is the number of pending delta annotations
// (inserts + deletes) at which a mutation triggers auto-compaction of a
// document's region index.
const DefaultCompactThreshold = 4096

// SetAutoCompactThreshold sets the delta size at which mutations compact the
// region index automatically; 0 disables auto-compaction.
func (e *Engine) SetAutoCompactThreshold(n int) {
	e.mu.Lock()
	e.compactEvery = n
	e.mu.Unlock()
}

// ParsePosition parses a position literal in the engine's configured
// standoff-type domain (plain integers by default; RFC 3339 for dateTime,
// h:mm:ss[.mmm] for timecode). Mutation tooling uses it to accept positions
// in the same syntax the annotations themselves carry.
func (e *Engine) ParsePosition(s string) (int64, error) {
	return e.currentOptions().ParsePosition(s)
}

// InsertAnnotation appends an area-annotation element named elem to document
// docName, covering the given regions. In the default attribute mode exactly
// one region is written as start/end attributes; with standoff-region
// declared, any number of regions is written as nested region elements. The
// document advances to a new snapshot and its cached region index gains a
// delta layer instead of being rebuilt.
func (e *Engine) InsertAnnotation(docName, elem string, regions ...Region) error {
	if !xmlparse.IsName(elem) {
		return fmt.Errorf("%w %q", ErrInvalidAnnotationName, elem)
	}
	if len(regions) == 0 {
		return fmt.Errorf("soxq: annotation %q needs at least one region", elem)
	}
	ivs := make([]interval.Region, len(regions))
	for i, r := range regions {
		iv, err := interval.NewRegion(r.Start, r.End)
		if err != nil {
			return fmt.Errorf("soxq: annotation %q: %v", elem, err)
		}
		ivs[i] = iv
	}
	area, err := interval.NewArea(ivs...)
	if err != nil {
		return fmt.Errorf("soxq: annotation %q: %v", elem, err)
	}
	regs := area.Regions() // normalised order, as the index scan stores them

	e.mu.Lock()
	defer e.mu.Unlock()
	opts := e.options
	if !opts.UseRegionElements && len(regs) > 1 {
		return fmt.Errorf("soxq: attribute-mode annotations carry exactly one region (declare standoff-region for multi-region areas)")
	}
	if opts.UseRegionElements && elem == opts.Region {
		return fmt.Errorf("soxq: annotation element %q collides with the region element name", elem)
	}
	d, ok := e.docs[docName]
	if !ok {
		return fmt.Errorf("soxq: no document %q", docName)
	}
	a, err := tree.NewAppender(d)
	if err != nil {
		return err
	}
	pre := a.StartElement(elem)
	if opts.UseRegionElements {
		for _, r := range regs {
			a.StartElement(opts.Region)
			a.StartElement(opts.Start)
			a.Text(opts.FormatPosition(r.Start))
			a.EndElement()
			a.StartElement(opts.End)
			a.Text(opts.FormatPosition(r.End))
			a.EndElement()
			a.EndElement()
		}
	} else {
		a.Attr(opts.Start, opts.FormatPosition(regs[0].Start))
		a.Attr(opts.End, opts.FormatPosition(regs[0].End))
	}
	a.EndElement()
	d2, err := a.Commit()
	if err != nil {
		return err
	}
	nameID, _ := d2.Dict().Lookup(elem) // interned by StartElement
	e.rekeyIndexes(d, d2, func(ix *core.RegionIndex) *core.RegionIndex {
		return ix.ApplyInsert(d2, pre, nameID, regs)
	})
	e.docs[docName] = d2
	e.gen.Add(1)
	e.tel.mutation("insert", len(regs))
	e.maybeCompactLocked(d2)
	return nil
}

// DeleteAnnotation removes every area-annotation named elem whose covering
// bounds are exactly [start, end] from document docName, returning how many
// annotations were removed (0 when none match — not an error). The matched
// elements' subtrees are tombstoned in a new snapshot; annotations of other
// layers nested inside them are removed with them.
func (e *Engine) DeleteAnnotation(docName, elem string, start, end int64) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.docs[docName]
	if !ok {
		return 0, fmt.Errorf("soxq: no document %q", docName)
	}
	nameID, ok := d.Dict().Lookup(elem)
	if !ok {
		return 0, nil
	}
	ix, err := e.lockedIndexFor(d, e.options)
	if err != nil {
		return 0, err
	}
	targets := ix.AreasWithBounds(nameID, start, end)
	if len(targets) == 0 {
		return 0, nil
	}
	d2, err := d.WithTombstones(targets)
	if err != nil {
		return 0, err
	}
	// Every area inside a tombstoned subtree dies with it; the delta layer
	// records them all, with their element names, so per-name candidate
	// caches of untouched layers stay exact.
	var killedPre, killedName []int32
	for _, t := range targets {
		for _, p := range ix.AreasIn(t, t+d.Size(t)) {
			killedPre = append(killedPre, p)
			killedName = append(killedName, d.NameID(p))
		}
	}
	e.rekeyIndexes(d, d2, func(old *core.RegionIndex) *core.RegionIndex {
		return old.ApplyDelete(d2, killedPre, killedName)
	})
	e.docs[docName] = d2
	e.gen.Add(1)
	e.tel.mutation("delete", len(targets))
	e.maybeCompactLocked(d2)
	return len(targets), nil
}

// CompactAnnotations folds all pending annotation deltas of document name
// into fresh base indexes, identical to a full rebuild over the current
// snapshot. Compaction changes no result, so it does not bump the catalog
// generation: cached plans and corpus results stay warm.
func (e *Engine) CompactAnnotations(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.docs[name]
	if !ok {
		return fmt.Errorf("soxq: no document %q", name)
	}
	e.compactDocLocked(d, 1)
	return nil
}

// rekeyIndexes moves every cached index of the old snapshot to the new one:
// indexes under the engine's current options are derived incrementally via
// derive, others are dropped and rebuild lazily from the new snapshot. With a
// nil derive (unload, reload) the old snapshot's indexes are only dropped.
func (e *Engine) rekeyIndexes(old, new *tree.Doc, derive func(*core.RegionIndex) *core.RegionIndex) {
	for k, ix := range e.indexes {
		if k.doc != old {
			continue
		}
		delete(e.indexes, k)
		if derive != nil && k.opts == e.options {
			e.indexes[indexKey{doc: new, opts: k.opts}] = derive(ix)
		}
	}
}

// lockedIndexFor is indexFor for callers already holding e.mu.
func (e *Engine) lockedIndexFor(d *tree.Doc, opts core.Options) (*core.RegionIndex, error) {
	key := indexKey{doc: d, opts: opts}
	if ix, ok := e.indexes[key]; ok {
		return ix, nil
	}
	ix, err := core.BuildIndex(d, opts)
	if err != nil {
		return nil, err
	}
	e.indexes[key] = ix
	return ix, nil
}

// maybeCompactLocked compacts d's indexes whose delta reached the threshold.
func (e *Engine) maybeCompactLocked(d *tree.Doc) {
	if e.compactEvery > 0 {
		e.compactDocLocked(d, e.compactEvery)
	}
}

func (e *Engine) compactDocLocked(d *tree.Doc, threshold int) {
	for k, ix := range e.indexes {
		if k.doc != d {
			continue
		}
		ins, del := ix.DeltaStats()
		if ins+del >= threshold {
			e.indexes[k] = ix.Compact()
			e.tel.compaction()
		}
	}
}

// runView pins one execution's view of the engine: the first resolution of a
// document (and of its index) wins for the whole run, so an in-flight cursor
// keeps draining a consistent snapshot generation while writers land new
// ones. Reads outside the tiny memo lock go through the engine's own
// synchronisation.
type runView struct {
	eng  *Engine
	opts core.Options

	mu   sync.Mutex
	docs memo[string, *tree.Doc]
	ixs  memo[*tree.Doc, *core.RegionIndex]
}

// memo holds the first non-zero value stored under each key. The first key
// is kept inline: most runs touch one document, and make no map.
type memo[K, V comparable] struct {
	k1 K
	v1 V
	m  map[K]V
}

func (m *memo[K, V]) get(k K) (V, bool) {
	var zero V
	if m.v1 != zero && m.k1 == k {
		return m.v1, true
	}
	v, ok := m.m[k]
	return v, ok
}

// put stores v under k unless k holds a value already; it returns k's value.
func (m *memo[K, V]) put(k K, v V) V {
	if prev, ok := m.get(k); ok {
		return prev
	}
	var zero V
	switch {
	case m.v1 == zero:
		m.k1, m.v1 = k, v
	case m.m == nil:
		m.m = map[K]V{k: v}
	default:
		m.m[k] = v
	}
	return v
}

func (v *runView) resolve(uri string) (*tree.Doc, error) {
	return pin(&v.mu, &v.docs, uri, func() (*tree.Doc, error) { return v.eng.resolve(uri) })
}

func (v *runView) indexFor(d *tree.Doc) (*core.RegionIndex, error) {
	return pin(&v.mu, &v.ixs, d, func() (*core.RegionIndex, error) { return v.eng.indexFor(d, v.opts) })
}

// pin returns what m holds for k, fetching and storing it on first use;
// fetch runs outside mu.
func pin[K, V comparable](mu *sync.Mutex, m *memo[K, V], k K, fetch func() (V, error)) (V, error) {
	mu.Lock()
	v, ok := m.get(k)
	mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := fetch()
	if err != nil {
		return v, err
	}
	mu.Lock()
	defer mu.Unlock()
	return m.put(k, v), nil
}
