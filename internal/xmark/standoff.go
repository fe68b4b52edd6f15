package xmark

import (
	"bytes"
	"fmt"
	"strconv"

	"soxq/internal/tree"
)

// StandOffConfig controls the stand-off conversion of section 4.6: text
// content moves to the BLOB, every element gets [start,end] region
// attributes referring into it, and record elements are permuted across
// their containers so that the original parent-child relationships are no
// longer represented by the tree structure — only by region containment.
type StandOffConfig struct {
	Seed uint64
	// StartAttr/EndAttr name the region attributes (paper defaults).
	StartAttr, EndAttr string
	// RecordNames lists the element names whose subtrees are permuted. Nil
	// selects the XMark record elements.
	RecordNames []string
	// Permute can be disabled to keep the original element order (the
	// regions are identical either way).
	Permute bool
}

// DefaultStandOffConfig returns the configuration used by the paper's
// benchmark conversion.
func DefaultStandOffConfig() StandOffConfig {
	return StandOffConfig{
		StartAttr: "start",
		EndAttr:   "end",
		RecordNames: []string{
			"item", "category", "edge", "person", "open_auction", "closed_auction",
		},
		Permute: true,
	}
}

// StandOffResult holds the converted document and its BLOB.
type StandOffResult struct {
	XML  []byte
	Blob []byte
}

// StandOffize converts any parsed XML document into its stand-off form.
func StandOffize(d *tree.Doc, cfg StandOffConfig) (*StandOffResult, error) {
	if cfg.StartAttr == "" || cfg.EndAttr == "" {
		return nil, fmt.Errorf("xmark: StandOffConfig needs attribute names")
	}
	n := int32(d.NumNodes())
	for pre := int32(0); pre < n; pre++ {
		if d.Kind(pre) == tree.ElementNode {
			if _, ok := d.AttrByName(pre, cfg.StartAttr); ok {
				return nil, fmt.Errorf("xmark: element <%s> already has a %q attribute",
					d.NodeName(pre), cfg.StartAttr)
			}
		}
	}
	s := &standoffizer{d: d, cfg: cfg,
		start: make([]int64, n), end: make([]int64, n),
		records: map[int32]bool{},
	}
	root := d.FirstChild(0)
	for root >= 0 && d.Kind(root) != tree.ElementNode {
		root = d.NextSibling(root)
	}
	if root < 0 {
		return nil, fmt.Errorf("xmark: document has no root element")
	}
	s.computeRegions(root)
	s.collectRecords(root)
	s.write(root)
	return &StandOffResult{XML: s.xml.Bytes(), Blob: s.blob.Bytes()}, nil
}

type standoffizer struct {
	d    *tree.Doc
	cfg  StandOffConfig
	blob bytes.Buffer
	xml  bytes.Buffer

	start, end []int64 // per element pre: BLOB region (closed interval)
	records    map[int32]bool
	assign     map[int32][]int32 // container pre -> record pres (permuted)
}

// computeRegions walks the tree in document order, appending text content to
// the BLOB and assigning every element the byte span of its subtree. An
// element without any text gets a one-byte separator so that it owns a
// distinct point region.
func (s *standoffizer) computeRegions(pre int32) {
	d := s.d
	from := int64(s.blob.Len())
	for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
		switch d.Kind(c) {
		case tree.TextNode:
			s.blob.Write(d.ValueBytes(c))
		case tree.ElementNode:
			s.computeRegions(c)
		}
	}
	if int64(s.blob.Len()) == from {
		s.blob.WriteByte('\n') // empty element: allocate one position
	}
	s.start[pre] = from
	s.end[pre] = int64(s.blob.Len()) - 1
}

// collectRecords marks record elements and assigns them (shuffled) to the
// container elements that originally held records.
func (s *standoffizer) collectRecords(root int32) {
	d := s.d
	isRecord := map[string]bool{}
	for _, n := range s.cfg.RecordNames {
		isRecord[n] = true
	}
	var recs []int32
	var containers []int32
	seen := map[int32]bool{}
	var walk func(pre int32)
	walk = func(pre int32) {
		for c := d.FirstChild(pre); c >= 0; c = d.NextSibling(c) {
			if d.Kind(c) != tree.ElementNode {
				continue
			}
			if isRecord[d.NodeName(c)] {
				s.records[c] = true
				recs = append(recs, c)
				if !seen[pre] {
					seen[pre] = true
					containers = append(containers, pre)
				}
				continue // do not descend into records
			}
			walk(c)
		}
	}
	walk(root)
	s.assign = map[int32][]int32{}
	if len(recs) == 0 || len(containers) == 0 {
		return
	}
	if s.cfg.Permute {
		r := newRNG(s.cfg.Seed ^ 0x53744F66)
		for i := len(recs) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			recs[i], recs[j] = recs[j], recs[i]
		}
		// Round-robin redistribution across containers: a person subtree
		// may end up under <asia>, an item under <people> — exactly the
		// "permuted on a coarse level" of section 4.6.
		for i, rec := range recs {
			c := containers[i%len(containers)]
			s.assign[c] = append(s.assign[c], rec)
		}
		return
	}
	// Keep records in their original containers and order.
	for _, rec := range recs {
		s.assign[s.d.Parent(rec)] = append(s.assign[s.d.Parent(rec)], rec)
	}
}

// write serialises the stand-off document: elements only (text lives in the
// BLOB), original attributes plus the region attributes.
func (s *standoffizer) write(pre int32) {
	d := s.d
	s.xml.WriteByte('<')
	s.xml.WriteString(d.NodeName(pre))
	lo, hi := d.Attrs(pre)
	for a := lo; a < hi; a++ {
		s.xml.WriteByte(' ')
		s.xml.Write(d.AppendAttrXML(s.xml.AvailableBuffer(), a))
	}
	b := append(append(s.xml.AvailableBuffer(), ' '), s.cfg.StartAttr...)
	b = strconv.AppendInt(append(b, `="`...), s.start[pre], 10)
	b = append(append(append(b, `" `...), s.cfg.EndAttr...), `="`...)
	s.xml.Write(append(strconv.AppendInt(b, s.end[pre], 10), '"'))

	first, assigned := s.kept(d.FirstChild(pre)), s.assign[pre]
	if first < 0 && len(assigned) == 0 {
		s.xml.WriteString("/>")
		return
	}
	s.xml.WriteByte('>')
	for c := first; c >= 0; c = s.kept(d.NextSibling(c)) {
		s.write(c)
	}
	for _, rec := range assigned {
		s.write(rec)
	}
	s.xml.WriteString("</")
	s.xml.WriteString(d.NodeName(pre))
	s.xml.WriteByte('>')
}

// kept returns the first of c and its following siblings that stays a child
// in the stand-off document: an element that is not a (reassigned) record.
func (s *standoffizer) kept(c int32) int32 {
	for c >= 0 && (s.d.Kind(c) != tree.ElementNode || s.records[c]) {
		c = s.d.NextSibling(c)
	}
	return c
}
