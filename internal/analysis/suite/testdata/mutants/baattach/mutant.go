// Package baattach is graphgen's Barabási–Albert generator as it once
// was: each arriving vertex attaches in map order, which reorders the
// endpoint list every later draw samples from — one seed, a different
// graph per run. The generator itself has since been deleted; this
// fixture stays as simdet's mutant.
package baattach

type builder struct{ edges [][2]int32 }

func (b *builder) AddEdge(u, v int32) { b.edges = append(b.edges, [2]int32{u, v}) }

func attach(b *builder, v int32, chosen map[int32]struct{}, endpoints []int32) []int32 {
	for t := range chosen {
		b.AddEdge(v, t)
		endpoints = append(endpoints, v, t)
	}
	return endpoints
}
