package conduit

import "strings"

// Select returns the leaf paths under n matching a '/'-separated pattern,
// where '*' matches exactly one path segment and '**' matches any number of
// trailing segments. Analyses use this to slice namespace trees without
// knowing host or timestamp names, e.g.:
//
//	n.Select("PROC/*/*/CPU Util")   // every host's every sample
//	n.Select("RP/task.000007/**")   // everything about one task
//
// Matches are returned in insertion order.
func (n *Node) Select(pattern string) []string {
	segs := splitPath(pattern)
	if len(segs) == 0 {
		return nil
	}
	var out []string
	n.selectWalk("", segs, &out)
	return out
}

func (n *Node) selectWalk(prefix string, pattern []string, out *[]string) {
	if len(pattern) == 0 {
		// Pattern exhausted: match only if this is a leaf.
		if n.IsLeaf() {
			*out = append(*out, prefix)
		}
		return
	}
	seg := pattern[0]
	if seg == "**" {
		// '**' matches every leaf under here (including zero segments when
		// the current node is itself a leaf).
		n.Walk(func(path string, _ *Node) bool {
			p := path
			if prefix != "" {
				if path == "" {
					p = prefix
				} else {
					p = prefix + "/" + path
				}
			}
			*out = append(*out, p)
			return true
		})
		return
	}
	if n.kind != KindObject {
		return
	}
	for i, name := range n.names() {
		if seg != "*" && seg != name {
			continue
		}
		p := name
		if prefix != "" {
			p = prefix + "/" + name
		}
		n.at(i).selectWalk(p, pattern[1:], out)
	}
}

// SelectFloats returns the float64 values at every leaf matching pattern
// (non-numeric matches are skipped) — the common analysis shape of "all
// CPU Util values" or "all MPI_Recv times".
func (n *Node) SelectFloats(pattern string) []float64 {
	var out []float64
	for _, path := range n.Select(pattern) {
		if v, ok := n.Float(path); ok {
			out = append(out, v)
		}
	}
	return out
}

// HasPrefixPath reports whether any leaf lives under the given path prefix.
func (n *Node) HasPrefixPath(prefix string) bool {
	sub, ok := n.Get(prefix)
	if !ok {
		return false
	}
	return sub.IsLeaf() || sub.NumLeaves() > 0
}

// PathJoin joins path segments with '/', skipping empties — a convenience
// for building namespace paths without caring about separators.
func PathJoin(segs ...string) string {
	var parts []string
	for _, s := range segs {
		s = strings.Trim(s, "/")
		if s != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "/")
}
