package core

import (
	"fmt"
	"sort"
)

// span is one contiguous code range belonging to a specific instance of a
// function: its C0 body, the hot or cold part of an optimized version, or
// a stack-live copy made during continuous optimization.
type span struct {
	lo, hi  uint64
	name    string // canonical function name
	entry   uint64 // entry address of this instance
	version int    // 0 = C0, i = code injected at round i (copies included)
}

// resolver symbolizes addresses across every live code region of the
// target process. OCOLOS rebuilds it after each replacement round.
type resolver struct {
	spans []span // sorted by lo
}

func (r *resolver) add(lo, hi uint64, name string, entry uint64, version int) {
	if hi <= lo {
		return
	}
	r.spans = append(r.spans, span{lo: lo, hi: hi, name: name, entry: entry, version: version})
}

func (r *resolver) sort() {
	sort.Slice(r.spans, func(i, j int) bool { return r.spans[i].lo < r.spans[j].lo })
	for i := 1; i < len(r.spans); i++ {
		if r.spans[i].lo < r.spans[i-1].hi {
			panic(fmt.Sprintf("core: overlapping code spans %x-%x and %x-%x",
				r.spans[i-1].lo, r.spans[i-1].hi, r.spans[i].lo, r.spans[i].hi))
		}
	}
}

// at returns the span containing addr.
func (r *resolver) at(addr uint64) (span, bool) {
	i := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].lo > addr })
	if i == 0 {
		return span{}, false
	}
	s := r.spans[i-1]
	if addr >= s.hi {
		return span{}, false
	}
	return s, true
}

// versionSpans returns all spans of a version.
func (r *resolver) versionSpans(version int) []span {
	var out []span
	for _, s := range r.spans {
		if s.version == version {
			out = append(out, s)
		}
	}
	return out
}
