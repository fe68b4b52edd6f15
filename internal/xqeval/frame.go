package xqeval

// binding is a loop-lifted variable: a base LLSeq plus an optional
// indirection so that lifting a variable into an inner loop copies an int32
// per iteration instead of duplicating item sequences (important for the
// quadratic UDF baselines, which lift whole candidate sequences).
//
// A binding with one effective group — a single-iteration sequence, or an
// already-broadcast binding — lifts into a broadcast: every iteration reads
// the same group, represented by a count instead of an indirection array.
// That makes the executor's chunk expansion (one root iteration fanned out
// to thousands of tuples per chunk) allocation-free per outer variable.
type binding struct {
	seq LLSeq
	ind []int32 // iteration i reads seq.Group(ind[i]); nil means identity

	bcast bool // every iteration reads seq.Group(bsrc); ind is unused
	bn    int  // iteration count when bcast
	bsrc  int  // the shared source group when bcast
}

func newBinding(seq LLSeq) *binding { return &binding{seq: seq} }

// group returns the item sequence bound in iteration i.
func (b *binding) group(i int) []Item {
	if b.bcast {
		return b.seq.Group(b.bsrc)
	}
	if b.ind != nil {
		i = int(b.ind[i])
	}
	return b.seq.Group(i)
}

// n returns the iteration count of the binding.
func (b *binding) n() int {
	if b.bcast {
		return b.bn
	}
	if b.ind != nil {
		return len(b.ind)
	}
	return b.seq.N()
}

// lift maps the binding into a loop with len(outerOf) iterations, where
// inner iteration j descends from outer iteration outerOf[j].
func (b *binding) lift(outerOf []int32) *binding {
	// One effective group (broadcast, or a single-iteration identity): all
	// outer groups are the same group, so the lifted binding broadcasts it —
	// no indirection array at all.
	if b.bcast || (b.ind == nil && b.seq.N() == 1) {
		return &binding{seq: b.seq, bcast: true, bn: len(outerOf), bsrc: b.bsrc}
	}
	ind := make([]int32, len(outerOf))
	if b.ind == nil {
		copy(ind, outerOf)
	} else {
		for j, o := range outerOf {
			ind[j] = b.ind[o]
		}
	}
	return &binding{seq: b.seq, ind: ind}
}

// materialize flattens the indirection into a plain LLSeq.
func (b *binding) materialize() LLSeq {
	if b.bcast {
		g := b.seq.Group(b.bsrc)
		out := LLSeq{Off: make([]int32, b.bn+1), Items: make([]Item, 0, b.bn*len(g))}
		for i := 0; i < b.bn; i++ {
			out.Items = append(out.Items, g...)
			out.Off[i+1] = int32(len(out.Items))
		}
		return out
	}
	if b.ind == nil {
		return b.seq
	}
	total := 0
	for _, o := range b.ind {
		total += len(b.seq.Group(int(o)))
	}
	out := LLSeq{Off: make([]int32, 1, len(b.ind)+1), Items: make([]Item, 0, total)}
	for _, o := range b.ind {
		out.Items = append(out.Items, b.seq.Group(int(o))...)
		out.Off = append(out.Off, int32(len(out.Items)))
	}
	return out
}

// varBind is one entry of a frame's variable environment.
type varBind struct {
	name string
	b    *binding
}

// frame is the dynamic context of one loop scope: n iterations, the live
// variable bindings, and (inside predicates and path steps) the context
// item, position() and last() per iteration.
//
// Variables live in an association slice, looked up backwards so a shadowing
// bind wins; query environments are a handful of variables, where a linear
// scan beats a map copy per bind by a wide margin.
type frame struct {
	n    int
	vars []varBind
	ctx  *binding // 0-or-1 item per iteration; nil when no context item
	pos  []int64  // position() per iteration; nil when undefined
	last []int64  // last() per iteration; nil when undefined
}

func newFrame(n int) *frame {
	return &frame{n: n}
}

// lookup returns the binding of name, or nil.
func (f *frame) lookup(name string) *binding {
	for i := len(f.vars) - 1; i >= 0; i-- {
		if f.vars[i].name == name {
			return f.vars[i].b
		}
	}
	return nil
}

// expand lifts the frame into an inner loop described by outerOf.
func (f *frame) expand(outerOf []int32) *frame {
	nf := &frame{n: len(outerOf)}
	if len(f.vars) > 0 {
		nf.vars = make([]varBind, len(f.vars))
		for i, vb := range f.vars {
			nf.vars[i] = varBind{vb.name, vb.b.lift(outerOf)}
		}
	}
	if f.ctx != nil {
		nf.ctx = f.ctx.lift(outerOf)
	}
	if f.pos != nil {
		nf.pos = liftI64(f.pos, outerOf)
	}
	if f.last != nil {
		nf.last = liftI64(f.last, outerOf)
	}
	return nf
}

// restrict keeps only the listed iterations (used by if/else partitioning).
func (f *frame) restrict(keep []int32) *frame {
	return f.expand(keep)
}

// bind adds (or shadows) a variable: copy-on-write of the association slice,
// replacing a same-name entry in place so repeated rebinding (chunk loops)
// does not grow the environment.
func (f *frame) bind(name string, b *binding) *frame {
	nf := &frame{n: f.n, ctx: f.ctx, pos: f.pos, last: f.last}
	nf.vars = make([]varBind, len(f.vars), len(f.vars)+1)
	copy(nf.vars, f.vars)
	for i := range nf.vars {
		if nf.vars[i].name == name {
			nf.vars[i].b = b
			return nf
		}
	}
	nf.vars = append(nf.vars, varBind{name, b})
	return nf
}

func liftI64(v []int64, outerOf []int32) []int64 {
	out := make([]int64, len(outerOf))
	for j, o := range outerOf {
		out[j] = v[o]
	}
	return out
}

func broadcastI64(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
