package traverse

import (
	"fmt"

	"subtrav/internal/graph"
)

// Direction-optimizing traversal (Beamer et al., "Direction-Optimizing
// Breadth-First Search"): when a wave's frontier is dense, expanding it
// top-down (push) scans every edge out of an enormous frontier, most of
// which land on already-visited vertices. Flipping to a bottom-up
// (pull) sweep — scan the *unvisited* vertices and probe their in-edges
// for a frontier parent — does work proportional to the shrinking
// unvisited set instead.
//
// The repo-wide invariant that traversal output depends only on (graph,
// query) is preserved exactly: a pull wave reconstructs the push wave's
// discovery order by ranking each newly discovered vertex with the
// (frontier position, forward slot) key of its earliest qualifying
// in-edge, so Results and Traces are bit-for-bit identical in every
// mode (the differential wall enforces this). Direction choice is
// visible only through DirStats and the executor metrics.

// Direction selects how BFS/SSSP waves expand their frontier.
type Direction uint8

const (
	// DirAuto switches per wave with the Beamer alpha/beta heuristic.
	DirAuto Direction = iota
	// DirForcePush always expands top-down (the classic sparse path).
	DirForcePush
	// DirForcePull always expands bottom-up; for testing and ablation.
	DirForcePull
)

func (d Direction) String() string {
	switch d {
	case DirAuto:
		return "auto"
	case DirForcePush:
		return "push"
	case DirForcePull:
		return "pull"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Default heuristic thresholds. Alpha compares frontier out-edges
// against the pull wave's true cost (unexplored edges + the |V| sweep)
// for the push→pull flip; beta compares frontier size against |V| for
// the flip back once the frontier thins.
//
// Beamer's classic alpha of 14 assumes a bottom-up step that stops at
// the first frontier parent, making pull probes ~an order of magnitude
// cheaper than push scans. Our pull cannot early-exit — it must find
// the *minimum* (frontier position, slot) key to reconstruct the push
// discovery order — so a pull wave costs its full in-edge scan. The
// break-even is therefore at parity: flip only when the frontier's
// out-edges outnumber what the pull wave will actually probe.
const (
	DefaultAlpha = 1.0
	DefaultBeta  = 24.0
)

// DirectionConfig tunes push/pull switching. The zero value means
// DirAuto with the default thresholds, so existing queries get
// direction optimization without opting in.
type DirectionConfig struct {
	Mode Direction

	// Alpha tunes the push→pull switch: a push wave about to scan
	// frontierEdges out-edges flips to pull when frontierEdges*Alpha >
	// unexploredEdges + numVertices — the right side being the pull
	// wave's cost, an in-edge probe per unexplored slot plus the O(|V|)
	// sweep over the vertex range. 0 means DefaultAlpha.
	Alpha float64

	// Beta tunes the pull→push switch back: a pull wave reverts to push
	// when frontierLen*Beta < |V|. 0 means DefaultBeta.
	Beta float64
}

// withDefaults resolves zero thresholds to the Beamer defaults.
func (c DirectionConfig) withDefaults() DirectionConfig {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	return c
}

func (c DirectionConfig) validate() error {
	if c.Mode > DirForcePull {
		return fmt.Errorf("traverse: unknown direction mode %d", c.Mode)
	}
	if c.Alpha < 0 || c.Beta < 0 {
		return fmt.Errorf("traverse: negative direction thresholds (alpha %g, beta %g)", c.Alpha, c.Beta)
	}
	return nil
}

// next decides the direction of the coming expansion wave given the
// previous wave's direction and the frontier/unexplored sizes. Called
// with resolved (non-zero) thresholds.
//
//vet:hotpath
func (c DirectionConfig) next(pulling bool, frontierEdges, unexploredEdges int64, frontierLen, numVertices int) bool {
	switch c.Mode {
	case DirForcePush:
		return false
	case DirForcePull:
		return true
	}
	if !pulling {
		return float64(frontierEdges)*c.Alpha > float64(unexploredEdges)+float64(numVertices)
	}
	return float64(frontierLen)*c.Beta >= float64(numVertices)
}

// pullCand is one bottom-up discovery: vertex u found via its minimum
// (frontier position << 32 | forward slot) key, the exact rank the push
// expansion would have discovered it at. Ordering candidates by key
// reconstructs the push frontier order bit-for-bit.
type pullCand struct {
	key uint64
	u   graph.VertexID
}

// orderPullCands arranges a pull wave's discoveries into ascending key
// order — push discovery order — without a comparison sort. Adjacency
// lists are target-sorted (see graph.Builder), so within one frontier
// position the candidates, generated in ascending vertex order, are
// already in ascending slot order; a stable counting scatter on the
// position half of the key therefore finishes the job in
// O(cands + frontier). The out/count buffers are caller-owned scratch,
// grown here and reused across waves.
//
//vet:hotpath
func orderPullCands(cands []pullCand, nFront int, outBuf *[]pullCand, countBuf *[]int32) []pullCand {
	if len(cands) < 2 {
		return cands
	}
	counts := *countBuf
	if cap(counts) < nFront {
		counts = make([]int32, nFront) //lint:allow allocfree amortized growth: buffer persists in the workspace, so steady state never re-allocates
	}
	counts = counts[:nFront]
	for i := range counts {
		counts[i] = 0
	}
	for _, c := range cands {
		counts[c.key>>32]++
	}
	var off int32
	for i, n := range counts {
		counts[i] = off
		off += n
	}
	out := *outBuf
	if cap(out) < len(cands) {
		out = make([]pullCand, len(cands)) //lint:allow allocfree amortized growth: buffer persists in the workspace, so steady state never re-allocates
	}
	out = out[:len(cands)]
	for _, c := range cands {
		i := c.key >> 32
		out[counts[i]] = c
		counts[i]++
	}
	*countBuf = counts
	*outBuf = out
	return out
}

// DirStats counts the direction decisions of one query execution:
// expansion waves run in each direction and the number of push↔pull
// transitions. Deliberately not part of Result or Trace — those are
// pinned bit-for-bit across modes — and surfaced through
// Workspace.DirStats / Batch.DirStats and the executor span detail.
type DirStats struct {
	PushWaves int
	PullWaves int
	Switches  int
}

// record accounts one expansion wave; a transition is counted against
// the same frontier's previous wave (first is true on a frontier's
// first expansion, which can't be a switch).
func (d *DirStats) record(pull, prevPull, first bool) {
	if pull {
		d.PullWaves++
	} else {
		d.PushWaves++
	}
	if !first && pull != prevPull {
		d.Switches++
	}
}
