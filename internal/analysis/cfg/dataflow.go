package cfg

// Forward dataflow over the graph: a may-analysis with set union as
// the join, iterated with a worklist in reverse postorder until
// fixpoint. The lattice is a set of analyzer-defined facts (any
// comparable key — a *types.Var for taint); transfer functions are
// arbitrary.

// FactSet is a set of dataflow facts. Keys must be comparable.
type FactSet map[any]bool

// Clone returns an independent copy.
func (s FactSet) Clone() FactSet {
	c := make(FactSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// Union adds every fact of o to s and reports whether s changed.
func (s FactSet) Union(o FactSet) bool {
	changed := false
	for k := range o {
		if !s[k] {
			s[k] = true
			changed = true
		}
	}
	return changed
}

// Equal reports set equality.
func (s FactSet) Equal(o FactSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// TransferFunc computes a block's out-set from its in-set. It must
// treat in as read-only and return a fresh (or unaliased) set.
type TransferFunc func(b *Block, in FactSet) FactSet

// Forward runs the transfer function to fixpoint and returns each
// reachable block's in-set (the join over predecessors' out-sets;
// entry's in-set is the given entry facts). Blocks unreachable from
// Entry are absent from the result.
func Forward(g *Graph, entry FactSet, transfer TransferFunc) map[*Block]FactSet {
	rpo := g.ReversePostorder()
	order := make(map[*Block]int, len(rpo))
	for i, b := range rpo {
		order[b] = i
	}
	in := make(map[*Block]FactSet, len(rpo))
	out := make(map[*Block]FactSet, len(rpo))
	in[g.Entry] = entry.Clone()

	// Worklist seeded in reverse postorder; re-queue on change.
	queued := make([]bool, len(rpo))
	list := make([]*Block, len(rpo))
	copy(list, rpo)
	for i := range queued {
		queued[i] = true
	}
	for len(list) > 0 {
		// Pop the lowest reverse-postorder index for fast convergence.
		best := 0
		for i := 1; i < len(list); i++ {
			if order[list[i]] < order[list[best]] {
				best = i
			}
		}
		b := list[best]
		list[best] = list[len(list)-1]
		list = list[:len(list)-1]
		queued[order[b]] = false

		ib := in[b]
		if ib == nil {
			ib = FactSet{}
			in[b] = ib
		}
		ob := transfer(b, ib)
		if prev, ok := out[b]; ok && prev.Equal(ob) {
			continue
		}
		out[b] = ob
		for _, s := range b.Succs {
			si, ok := order[s]
			if !ok {
				continue // unreachable successor (cannot happen from a reachable block, but be safe)
			}
			is := in[s]
			if is == nil {
				is = FactSet{}
				in[s] = is
			}
			if is.Union(ob) && !queued[si] {
				queued[si] = true
				list = append(list, s)
			}
		}
	}
	return in
}
