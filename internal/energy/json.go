package energy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
)

// JSON model files have the Model shape:
//
//	{
//	  "name": "my-soc",
//	  "components": [
//	    {"name": "core",
//	     "dynamic_pj": {"sim_insts": 50},
//	     "static_watts": 0.7,
//	     "static_watts_per_ghz": 0.1},
//	    {"name": "dram", "dynamic_pj": {"system.mem.requests": 18000}}
//	  ]
//	}
//
// Keys are case-sensitive. Parse rejects unknown fields, a key that
// differs from a field name only in letter case among them, and reports
// syntax and type errors with line:column positions, then runs semantic
// validation with field-path messages — a bad model file fails at load
// time, never mid-simulation.

// Parse decodes and validates a JSON model.
func Parse(data []byte) (*Model, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Model
	if err := dec.Decode(&m); err != nil {
		return nil, decodeError(data, err)
	}
	// Trailing garbage after the model object is a malformed file too.
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		line, col := lineCol(data, int64(len(data)-len(rest)))
		return nil, fmt.Errorf("energy: line %d:%d: unexpected data after model object", line, col)
	}
	if err := exactKeys(data); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	// An empty dynamic_pj reads as an absent one, as json.Marshal
	// writes it, so a parsed model re-encodes to itself.
	for i := range m.Components {
		if len(m.Components[i].Dynamic) == 0 {
			m.Components[i].Dynamic = nil
		}
	}
	return &m, nil
}

// exactKeys rejects a key that encoding/json matched to a field only
// when case is ignored ("nAme" for "name"): the format's keys are exact.
// data has already decoded into a Model, so any key that is not a field
// name is such a key.
func exactKeys(data []byte) error {
	var model map[string]json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&model); err != nil {
		return fmt.Errorf("energy: %v", err)
	}
	if err := checkKeys("", model, Model{}); err != nil {
		return err
	}
	var comps []map[string]json.RawMessage
	if raw, ok := model["components"]; ok {
		if err := json.Unmarshal(raw, &comps); err != nil {
			return fmt.Errorf("energy: %v", err)
		}
	}
	for i, c := range comps {
		if err := checkKeys(fmt.Sprintf("components[%d].", i), c, Component{}); err != nil {
			return err
		}
	}
	return nil
}

// checkKeys reports the first key of obj that is not the JSON name of
// one of fields' struct fields.
func checkKeys(path string, obj map[string]json.RawMessage, fields any) error {
	names := map[string]bool{}
	t := reflect.TypeOf(fields)
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		names[name] = true
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !names[k] {
			return fmt.Errorf("energy: field %q: unknown field (field names are case-sensitive)", path+k)
		}
	}
	return nil
}

// Load reads and parses a JSON model file.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	m, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// decodeError rewrites encoding/json's byte offsets as line:column.
func decodeError(data []byte, err error) error {
	switch e := err.(type) {
	case *json.SyntaxError:
		line, col := lineCol(data, e.Offset)
		return fmt.Errorf("energy: line %d:%d: %v", line, col, e)
	case *json.UnmarshalTypeError:
		line, col := lineCol(data, e.Offset)
		field := e.Field
		if field == "" {
			field = "(root)"
		}
		return fmt.Errorf("energy: line %d:%d: field %q: cannot use JSON %s as %s",
			line, col, field, e.Value, e.Type)
	default:
		// DisallowUnknownFields errors arrive as plain errors with the
		// field name quoted; pass them through with the energy: prefix.
		return fmt.Errorf("energy: %v", err)
	}
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, off int64) (line, col int) {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	prefix := data[:off]
	line = 1 + bytes.Count(prefix, []byte{'\n'})
	if i := bytes.LastIndexByte(prefix, '\n'); i >= 0 {
		col = int(off) - i
	} else {
		col = int(off) + 1
	}
	return line, col
}

// Salt returns a short content hash of the model over a canonical
// serialization (sorted component order preserved as declared, sorted
// counter names). Two semantically identical models — regardless of map
// ordering or JSON formatting — salt a simulation-cache key the same
// way, and any coefficient edit re-keys every cached run that used the
// model.
func (m *Model) Salt() string {
	var sb strings.Builder
	sb.WriteString(m.Name)
	for _, c := range m.Components {
		fmt.Fprintf(&sb, "|%s:%g:%g", c.Name, c.StaticW, c.StaticWPerGHz)
		names := make([]string, 0, len(c.Dynamic))
		for n := range c.Dynamic {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, ",%s=%g", n, c.Dynamic[n])
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}
