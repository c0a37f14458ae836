package core

import (
	"fmt"
	"sort"
	"strings"
)

// Platform is a complete PDL platform description: one or more Master
// hierarchies plus document metadata. A platform corresponds to one PDL XML
// document.
type Platform struct {
	Name          string
	SchemaVersion string
	Masters       []*PU
}

// Walk visits every PU of the platform in document order (depth-first
// pre-order per Master). Returning false from the visitor stops the walk.
func (pl *Platform) Walk(visit func(pu, controller *PU) bool) {
	stopped := false
	for _, m := range pl.Masters {
		if stopped {
			return
		}
		m.Walk(func(n, parent *PU) bool {
			if !visit(n, parent) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// AllPUs returns every processing unit of the platform in document order.
func (pl *Platform) AllPUs() []*PU {
	var out []*PU
	pl.Walk(func(n, _ *PU) bool {
		out = append(out, n)
		return true
	})
	return out
}

// FindPU returns the unit with the given id, or nil if absent.
func (pl *Platform) FindPU(id string) *PU {
	var found *PU
	pl.Walk(func(n, _ *PU) bool {
		if n.ID == id {
			found = n
			return false
		}
		return true
	})
	return found
}

// Controller returns the PU controlling the unit with the given id, or nil
// for Masters and unknown ids.
func (pl *Platform) Controller(id string) *PU {
	var found *PU
	pl.Walk(func(n, parent *PU) bool {
		if n.ID == id {
			found = parent
			return false
		}
		return true
	})
	return found
}

// PUsByClass returns every unit of the given class in document order.
func (pl *Platform) PUsByClass(c Class) []*PU {
	var out []*PU
	pl.Walk(func(n, _ *PU) bool {
		if n.Class == c {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Workers returns all Worker units.
func (pl *Platform) Workers() []*PU { return pl.PUsByClass(Worker) }

// Group returns the units carrying the given LogicGroupAttribute, in
// document order.
func (pl *Platform) Group(name string) []*PU {
	var out []*PU
	pl.Walk(func(n, _ *PU) bool {
		if n.InGroup(name) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Groups returns the sorted set of group names used anywhere in the
// platform.
func (pl *Platform) Groups() []string {
	seen := map[string]bool{}
	pl.Walk(func(n, _ *PU) bool {
		for _, g := range n.Groups {
			seen[g] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Interconnects returns every interconnect declared anywhere in the
// hierarchy, in document order.
func (pl *Platform) Interconnects() []Interconnect {
	var out []Interconnect
	pl.Walk(func(n, _ *PU) bool {
		out = append(out, n.Links...)
		return true
	})
	return out
}

// LinkBetween returns the first interconnect joining PUs a and b (in either
// direction for duplex links) and reports whether one exists.
func (pl *Platform) LinkBetween(a, b string) (Interconnect, bool) {
	for _, ic := range pl.Interconnects() {
		if ic.Connects(a, b) {
			return ic, true
		}
	}
	return Interconnect{}, false
}

// Route returns a sequence of interconnects forming a shortest path (by hop
// count) from PU `from` to PU `to`, or an error when no path exists. The
// control hierarchy itself does not imply connectivity: only declared
// interconnects are used, which reflects the paper's requirement that
// data-transfer paths be derivable from explicit Interconnect entities.
func (pl *Platform) Route(from, to string) ([]Interconnect, error) {
	if from == to {
		return nil, nil
	}
	if pl.FindPU(from) == nil {
		return nil, fmt.Errorf("core: route: unknown PU %q", from)
	}
	if pl.FindPU(to) == nil {
		return nil, fmt.Errorf("core: route: unknown PU %q", to)
	}
	links := pl.Interconnects()
	type hop struct {
		prev string
		link Interconnect
	}
	visited := map[string]hop{from: {}}
	frontier := []string{from}
	for len(frontier) > 0 {
		var next []string
		for _, cur := range frontier {
			for _, ic := range links {
				var dst string
				switch {
				case ic.From == cur:
					dst = ic.To
				case ic.Duplex && ic.To == cur:
					dst = ic.From
				default:
					continue
				}
				if _, seen := visited[dst]; seen {
					continue
				}
				visited[dst] = hop{prev: cur, link: ic}
				if dst == to {
					var path []Interconnect
					for at := to; at != from; {
						h := visited[at]
						path = append([]Interconnect{h.link}, path...)
						at = h.prev
					}
					return path, nil
				}
				next = append(next, dst)
			}
		}
		frontier = next
	}
	return nil, fmt.Errorf("core: no interconnect route from %q to %q", from, to)
}

// RouteCost prices moving data from PU `from` to PU `to`: the Cost of every
// interconnect on Route, summed, so n bytes take latSec + n·secPerByte. It
// is the one link pricer the engines share; the error is Route's, and a
// route from a PU to itself is free.
func (pl *Platform) RouteCost(from, to string) (latSec, secPerByte float64, err error) {
	route, err := pl.Route(from, to)
	for i := range route {
		l, b := route[i].Cost()
		latSec += l
		secPerByte += b
	}
	return latSec, secPerByte, err
}

// TotalUnits returns the number of physical units the platform stands for,
// i.e. the sum of effective quantities over all PUs.
func (pl *Platform) TotalUnits() int {
	n := 0
	pl.Walk(func(pu, _ *PU) bool {
		n += pu.EffectiveQuantity()
		return true
	})
	return n
}

// Expand returns a copy of the platform in which every PU with Quantity > 1
// is replaced by Quantity identical PUs with ids "<id>.<k>" (k starting at
// 0). Declared interconnects that reference an expanded id are duplicated for
// each instance. Expansion gives runtimes and simulators individual unit
// identities while descriptors stay compact.
func (pl *Platform) Expand() *Platform {
	out := &Platform{Name: pl.Name, SchemaVersion: pl.SchemaVersion}
	rename := map[string][]string{} // original id -> instance ids
	// Children of a multi-instance PU describe shared physical devices (8
	// cores controlling 2 GPUs means 2 GPUs total), so the subtree is
	// expanded once and attached to the first instance, which acts as the
	// canonical controller.
	var expand func(p *PU) []*PU
	expand = func(p *PU) []*PU {
		q := p.EffectiveQuantity()
		units := make([]*PU, 0, q)
		for k := 0; k < q; k++ {
			cp := p.Clone()
			cp.Quantity = 1
			cp.Children = nil
			cp.Links = nil
			if q > 1 {
				cp.ID = fmt.Sprintf("%s.%d", p.ID, k)
			}
			rename[p.ID] = append(rename[p.ID], cp.ID)
			if k == 0 {
				for _, c := range p.Children {
					cp.Children = append(cp.Children, expand(c)...)
				}
			}
			units = append(units, cp)
		}
		return units
	}
	for _, m := range pl.Masters {
		out.Masters = append(out.Masters, expand(m)...)
	}
	// Re-attach interconnects, duplicating per instance pair.
	ids := func(id string) []string {
		if r, ok := rename[id]; ok {
			return r
		}
		return []string{id}
	}
	for _, ic := range pl.Interconnects() {
		seq := 0
		for _, f := range ids(ic.From) {
			for _, t := range ids(ic.To) {
				dup := ic
				dup.Descriptor = ic.Descriptor.Clone()
				dup.From, dup.To = f, t
				if ic.ID != "" && (len(ids(ic.From)) > 1 || len(ids(ic.To)) > 1) {
					dup.ID = fmt.Sprintf("%s.%d", ic.ID, seq)
				}
				seq++
				if host := out.FindPU(f); host != nil {
					host.Links = append(host.Links, dup)
				} else if host := out.FindPU(t); host != nil {
					host.Links = append(host.Links, dup)
				}
			}
		}
	}
	return out
}

// Clone returns a deep copy of the platform.
func (pl *Platform) Clone() *Platform {
	out := &Platform{Name: pl.Name, SchemaVersion: pl.SchemaVersion}
	for _, m := range pl.Masters {
		out.Masters = append(out.Masters, m.Clone())
	}
	return out
}

// Summary renders an indented tree of the platform for logs and CLIs.
func (pl *Platform) Summary() string {
	var b strings.Builder
	if pl.Name != "" {
		fmt.Fprintf(&b, "Platform %s\n", pl.Name)
	}
	var rec func(p *PU, depth int)
	rec = func(p *PU, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), p)
		if len(p.Groups) > 0 {
			fmt.Fprintf(&b, " groups=%v", p.Groups)
		}
		b.WriteString("\n")
		for _, ic := range p.Links {
			fmt.Fprintf(&b, "%s  link %s %s->%s\n", strings.Repeat("  ", depth), ic.Type, ic.From, ic.To)
		}
		for _, c := range p.Children {
			rec(c, depth+1)
		}
	}
	for _, m := range pl.Masters {
		rec(m, 0)
	}
	return b.String()
}
