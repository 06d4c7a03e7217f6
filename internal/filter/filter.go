// Package filter implements the candidate result path filter of the OPAQUE
// obfuscator (Figures 5 and 6 of the paper): after the directions search
// server returns the candidate result paths of an obfuscated path query
// Q(S, T), the filter picks out, for each request the query covers, the path
// that answers its true query Q(s, t) and checks it against the obfuscator's
// own road map; the satisfied request is then discarded.
package filter

import (
	"errors"
	"fmt"
	"slices"

	"opaque/internal/obfuscate"
	"opaque/internal/protocol"
	"opaque/internal/roadnet"
	"opaque/internal/search"
)

// ErrBadReply reports a reply that does not answer the query it was sent
// for: its table is not |S|×|T| or cannot be read, a request's cell names
// other endpoints than (s, t), or a found cell's path is not a walk from s to
// t along arcs of the obfuscator's map. A bad reply fails the requests of
// its query; it never reads as "no route".
var ErrBadReply = errors.New("filter: the reply does not answer its query")

// inlineCells is how many requests' cells Extract reads without allocating
// its scratch.
const inlineCells = 8

// Extract answers the requests q covers, batch[i] for i in slots, out of
// reply, the server's candidate table for q: paths[k] becomes the path of
// batch[slots[k]], empty when its destination is unreachable (paths is as
// long as slots). Each request's cell is found by position — cell (index of
// s in S, index of t in T) of the source-major |S|×|T| table — and all of
// them are read in one ServerReply.ReadCells pass, which validates a held
// reply's whole body and decodes none of the padding cells. A held reply to
// a query that named g's topology carries its paths as out-arc ordinals on
// g, which the pass resolves on g: such a path is a walk on g by
// construction, and a reply bound to another map fails. Every path is an
// exactly-sized slice the caller owns, and for up to inlineCells requests it
// is the only allocation.
//
// Each cell is checked for structure only: its endpoints, and that a found
// path walks the map g from s to t — the check that holds for in-process
// replies and node-id paths, and costs one arc lookup a step. Its cost is not
// compared with g's, because the server answers with live weights the
// obfuscator does not have. A failed check fails the whole query with
// ErrBadReply.
func Extract(g *roadnet.Graph, q obfuscate.ObfuscatedQuery, reply protocol.ServerReply, batch []obfuscate.Request, slots []int, paths []search.Path) error {
	if n := reply.Cells(); n != len(q.Sources)*len(q.Dests) {
		return fmt.Errorf("%w: %d cells for a %d×%d query", ErrBadReply, n, len(q.Sources), len(q.Dests))
	}
	var atBuf [inlineCells][2]int
	var cellBuf [inlineCells]protocol.CandidatePath
	at, cells := atBuf[:0], cellBuf[:]
	if len(slots) > inlineCells {
		at, cells = make([][2]int, 0, len(slots)), make([]protocol.CandidatePath, len(slots))
	}
	cells = cells[:len(slots)]
	for _, i := range slots {
		r := batch[i]
		si, ti := slices.Index(q.Sources, r.Source), slices.Index(q.Dests, r.Dest)
		if si < 0 || ti < 0 {
			return fmt.Errorf("filter: query %d does not cover request %q (%d→%d)", q.ID, r.User, r.Source, r.Dest)
		}
		at = append(at, [2]int{si, ti})
	}
	if err := reply.ReadCells(g, cells, at); err != nil {
		return fmt.Errorf("%w: %w", ErrBadReply, err)
	}
	for k, i := range slots {
		if err := check(g, batch[i], cells[k]); err != nil {
			return fmt.Errorf("%w: request %q: %v", ErrBadReply, batch[i].User, err)
		}
		paths[k] = cells[k].Path()
	}
	return nil
}

// check refuses a cell that does not answer r: one whose endpoints are not
// (s, t), or a found one whose path is not a walk on g from s to t. Every
// node after the first is the head of an arc of g, so checking each step's
// arc checks the nodes too.
func check(g *roadnet.Graph, r obfuscate.Request, c protocol.CandidatePath) error {
	if c.Source != r.Source || c.Dest != r.Dest {
		return fmt.Errorf("its cell is %d→%d, not %d→%d", c.Source, c.Dest, r.Source, r.Dest)
	}
	if !c.Found {
		return nil
	}
	p := c.Nodes
	if len(p) == 0 || p[0] != r.Source || p[len(p)-1] != r.Dest || !g.ValidNode(p[0]) {
		return fmt.Errorf("its path does not run %d→%d", r.Source, r.Dest)
	}
	for i := 0; i+1 < len(p); i++ {
		if _, ok := g.ArcCost(p[i], p[i+1]); !ok {
			return fmt.Errorf("step %d: no road segment from %d to %d", i, p[i], p[i+1])
		}
	}
	return nil
}
