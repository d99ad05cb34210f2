package conduit

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
		if n.isLeaf() {
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
