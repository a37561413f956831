package database

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gem5art/internal/database/storage"
)

// hashIndex is a hash index over one declared key set: it maps the
// canonical encoding of a document's values for the keys to the
// ascending positions, in the collection slice, of the documents that
// carry them. There are two kinds, differing only in what an insert or
// update may do: a unique index (CreateUniqueIndex) rejects a second
// document under an occupied key, a plain one (CreateIndex) accepts
// any number. Both answer equality filters that pin every one of their
// keys for Find/FindOne/Count/UpdateOne without scanning; ascending
// positions keep index answers in insertion order, like a scan.
type hashIndex struct {
	keys   []string
	unique bool
	pos    map[string][]int
}

func newHashIndex(keys []string, unique bool) *hashIndex {
	return &hashIndex{keys: append([]string(nil), keys...), unique: unique}
}

// build indexes existing documents. Pre-existing duplicates under a
// unique index are tolerated (all are listed), matching how indexes
// have always been installed over already-loaded collections.
func (idx *hashIndex) build(docs []Doc) {
	idx.pos = make(map[string][]int, len(docs))
	for i, d := range docs {
		key := canonicalKey(d, idx.keys)
		idx.pos[key] = append(idx.pos[key], i)
	}
}

// add lists position p under key, keeping the list ascending. Inserts
// always append (p is the newest position); only an update that moves
// an older document under the key pays for the search and shift.
func (idx *hashIndex) add(key string, p int) {
	ps := idx.pos[key]
	i := len(ps)
	if i > 0 && ps[i-1] > p {
		i = sort.SearchInts(ps, p)
	}
	ps = append(ps, 0)
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	idx.pos[key] = ps
}

// remove unlists position p from key.
func (idx *hashIndex) remove(key string, p int) {
	ps := idx.pos[key]
	i := sort.SearchInts(ps, p)
	if i == len(ps) || ps[i] != p {
		return
	}
	if len(ps) == 1 {
		delete(idx.pos, key)
		return
	}
	idx.pos[key] = append(ps[:i], ps[i+1:]...)
}

// touchedBy reports whether merging set into a document can change the
// document's key under this index: a merge replaces top-level fields,
// so only the first dotted component of an index key can be hit.
func (idx *hashIndex) touchedBy(set Doc) bool {
	for _, k := range idx.keys {
		head, _, _ := strings.Cut(k, ".")
		if _, ok := set[head]; ok {
			return true
		}
	}
	return false
}

// rebuildIndexesLocked recomputes every index after positions shifted
// (deletions, journal replay, a replicated segment or snapshot).
// Caller holds c.mu.
func (c *collection) rebuildIndexesLocked() {
	c.byID = make(map[string]int, len(c.docs))
	for i, d := range c.docs {
		c.byID[fmt.Sprint(d["_id"])] = i
	}
	for _, idx := range c.indexes {
		idx.build(c.docs)
	}
}

// candidatesLocked plans an index answer for filter. eligible reports
// that the filter pins "_id", or every key of some declared index, with
// plain equality values, so every matching document is among the
// returned positions (ascending); when several indexes qualify the
// shortest list wins. Callers must still verify each candidate
// with storage.Matches — the filter may constrain additional keys
// (including operator expressions). one is scratch space for the
// single-candidate "_id" answer. Caller holds c.mu (read or write).
func (c *collection) candidatesLocked(filter Doc, one *[1]int) (cands []int, eligible bool) {
	if len(filter) == 0 {
		return nil, false
	}
	if v, ok := filter["_id"]; ok {
		if _, isOps := storage.OperatorDoc(v); !isOps {
			p, hit := c.byID[fmt.Sprint(v)]
			countIndexLookup(hit)
			if !hit {
				return nil, true
			}
			one[0] = p
			return one[:], true
		}
	}
	for _, idx := range c.indexes {
		key, ok := filterKey(filter, idx.keys)
		if !ok {
			continue
		}
		if ps := idx.pos[key]; !eligible || len(ps) < len(cands) {
			cands, eligible = ps, true
		}
	}
	if !eligible {
		dbFullScans.Inc()
		return nil, false
	}
	countIndexLookup(len(cands) > 0)
	return cands, true
}

// eachMatchLocked calls fn with the position of every document
// matching filter, in insertion order, until fn returns false: index
// candidates when the filter is index-eligible, the whole collection
// otherwise. Caller holds c.mu (read or write).
func (c *collection) eachMatchLocked(filter Doc, fn func(pos int) bool) {
	var one [1]int
	if cands, eligible := c.candidatesLocked(filter, &one); eligible {
		for _, p := range cands {
			if storage.Matches(c.docs[p], filter) && !fn(p) {
				return
			}
		}
		return
	}
	for p, d := range c.docs {
		if storage.Matches(d, filter) && !fn(p) {
			return
		}
	}
}

// filterKey builds the canonical index key from a filter that names
// every index key as a literal (non-operator) entry. ok is false when
// a key is absent from the filter, carries an operator expression, or
// a value cannot be canonically encoded.
func filterKey(filter Doc, keys []string) (string, bool) {
	var sb strings.Builder
	for _, k := range keys {
		v, ok := filter[k]
		if !ok {
			return "", false
		}
		if _, isOps := storage.OperatorDoc(v); isOps {
			return "", false
		}
		if !encodeValue(&sb, v) {
			return "", false
		}
		sb.WriteByte(';')
	}
	return sb.String(), true
}

// canonicalKey encodes a document's values for the index keys. Missing
// keys encode as a dedicated token no filter value encodes to (two
// documents both missing a key collide under a unique index, exactly as
// the scan-based duplicate check always treated them; an equality
// filter never matches a missing key). A value that cannot be
// canonically encoded makes the document non-colliding: the scan
// semantics never consider such values equal, so the entry is keyed by
// the document's own id.
func canonicalKey(d Doc, keys []string) string {
	var sb strings.Builder
	for _, k := range keys {
		v, ok := storage.Lookup(d, k)
		if !ok {
			sb.WriteString("m;")
			continue
		}
		if !encodeValue(&sb, v) {
			return "\x00doc:" + fmt.Sprint(d["_id"])
		}
		sb.WriteByte(';')
	}
	return sb.String()
}

// encodeValue appends a canonical encoding of v such that two values
// encode identically iff storage.ValuesEqual holds: all numeric types
// widen to float64, map keys are sorted, strings are quoted so
// delimiters cannot collide. Returns false for types ValuesEqual never
// considers equal.
func encodeValue(sb *strings.Builder, v any) bool {
	if f, ok := storage.ToFloat(v); ok {
		if f == 0 {
			f = 0 // -0 equals 0 under ValuesEqual but formats differently
		}
		sb.WriteString("n:")
		sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		return true
	}
	switch t := v.(type) {
	case string:
		sb.WriteString("s:")
		sb.WriteString(strconv.Quote(t))
		return true
	case bool:
		sb.WriteString("b:")
		sb.WriteString(strconv.FormatBool(t))
		return true
	case nil:
		sb.WriteString("z")
		return true
	case []any:
		sb.WriteString("a[")
		for _, e := range t {
			if !encodeValue(sb, e) {
				return false
			}
			sb.WriteByte(',')
		}
		sb.WriteByte(']')
		return true
	case map[string]any:
		ks := make([]string, 0, len(t))
		for k := range t {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		sb.WriteString("d{")
		for _, k := range ks {
			sb.WriteString(strconv.Quote(k))
			sb.WriteByte('=')
			if !encodeValue(sb, t[k]) {
				return false
			}
			sb.WriteByte(',')
		}
		sb.WriteByte('}')
		return true
	}
	return false
}
