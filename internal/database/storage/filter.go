package storage

import (
	"strings"
)

// Matches reports whether document d satisfies filter. Filter semantics
// are the MongoDB subset gem5art uses:
//
//   - {"k": v}            — equality (v may be a nested Doc for exact match)
//   - {"a.b": v}          — dotted keys traverse nested documents
//   - {"k": {"$gt": v}}   — comparison operators $gt, $gte, $lt, $lte, $ne
//   - {"k": {"$in": [..]}} — membership
//   - {"k": {"$exists": b}} — field presence
//   - {"k": {"$contains": s}} — substring match on string fields
//
// Multiple filter entries are ANDed. Every engine must implement
// exactly these semantics; the function is shared so they cannot drift.
func Matches(d Doc, filter Doc) bool {
	for k, want := range filter {
		got, ok := Lookup(d, k)
		if ops, isOps := OperatorDoc(want); isOps {
			if !matchOps(got, ok, ops) {
				return false
			}
			continue
		}
		if !ok || !ValuesEqual(got, want) {
			return false
		}
	}
	return true
}

// OperatorDoc reports whether v is a document whose keys are all
// operators (begin with '$'), returning it as a Doc when so. Engines
// use it to decide whether a filter entry is a plain equality (index
// eligible) or an operator expression (scan only).
func OperatorDoc(v any) (Doc, bool) {
	m, ok := v.(map[string]any)
	if !ok || len(m) == 0 {
		return nil, false
	}
	for k := range m {
		if !strings.HasPrefix(k, "$") {
			return nil, false
		}
	}
	return m, true
}

func matchOps(got any, present bool, ops Doc) bool {
	for op, arg := range ops {
		switch op {
		case "$exists":
			want, _ := arg.(bool)
			if present != want {
				return false
			}
		case "$ne":
			if present && ValuesEqual(got, arg) {
				return false
			}
		case "$in":
			if !present {
				return false
			}
			items, ok := arg.([]any)
			if !ok {
				return false
			}
			found := false
			for _, it := range items {
				if ValuesEqual(got, it) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		case "$gt", "$gte", "$lt", "$lte":
			if !present {
				return false
			}
			cmp, ok := CompareValues(got, arg)
			if !ok {
				return false
			}
			switch op {
			case "$gt":
				if cmp <= 0 {
					return false
				}
			case "$gte":
				if cmp < 0 {
					return false
				}
			case "$lt":
				if cmp >= 0 {
					return false
				}
			case "$lte":
				if cmp > 0 {
					return false
				}
			}
		case "$contains":
			s, sok := got.(string)
			sub, aok := arg.(string)
			if !present || !sok || !aok || !strings.Contains(s, sub) {
				return false
			}
		default:
			return false // unknown operator matches nothing
		}
	}
	return true
}

// Lookup resolves a possibly dotted key against a document. It walks
// the key in place and allocates nothing: it runs per document per
// filter key in every scan and per index key on every insert.
func Lookup(d Doc, key string) (any, bool) {
	m := d
	for {
		p, rest, dotted := strings.Cut(key, ".")
		v, ok := m[p]
		if !ok || !dotted {
			return v, ok
		}
		if m, ok = v.(map[string]any); !ok {
			return nil, false
		}
		key = rest
	}
}

// ValuesEqual compares two document values, treating all numeric types
// as comparable (JSON round-trips turn ints into float64).
func ValuesEqual(a, b any) bool {
	if af, aok := ToFloat(a); aok {
		bf, bok := ToFloat(b)
		return bok && af == bf
	}
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case nil:
		return b == nil
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !ValuesEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k, v := range av {
			bvv, ok := bv[k]
			if !ok || !ValuesEqual(v, bvv) {
				return false
			}
		}
		return true
	}
	return false
}

// CompareValues orders two values when they are both numbers or both
// strings. ok is false for incomparable values.
func CompareValues(a, b any) (cmp int, ok bool) {
	if af, aok := ToFloat(a); aok {
		bf, bok := ToFloat(b)
		if !bok {
			return 0, false
		}
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		default:
			return 0, true
		}
	}
	as, aok := a.(string)
	bs, bok := b.(string)
	if aok && bok {
		return strings.Compare(as, bs), true
	}
	return 0, false
}

// ToFloat widens any numeric document value to float64.
func ToFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int8:
		return float64(n), true
	case int16:
		return float64(n), true
	case int32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint:
		return float64(n), true
	case uint8:
		return float64(n), true
	case uint16:
		return float64(n), true
	case uint32:
		return float64(n), true
	case uint64:
		return float64(n), true
	}
	return 0, false
}
