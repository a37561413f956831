// Package energy is the attributive energy-model layer over the
// simulator's statistics framework. A Model declares, per modeled
// component, how much dynamic energy one activity event costs (pJ per
// committed instruction, cache hit, DRAM access, GPU op, ...) plus a
// static leakage power integrated over simulated time; Attach registers
// the resulting per-component and total joules, average watts, and
// energy-delay product as read-through sim.Formula stats on an existing
// StatGroup. Because every energy stat derives from counters the models
// already maintain, enabling the energy layer adds no work to the
// simulation hot path — energy is computed at dump/scrape time, exactly
// the Kepler-style attribution approach (per-component coefficients over
// activity counters) layered over the gem5 20.0+ power-model direction.
//
// Models come from built-in presets (per CPU model, classic vs. Ruby
// memory, GPU — see presets.go) or from JSON files validated on load
// with line/field-precise errors (json.go).
package energy

import (
	"fmt"
	"math"
	"sort"

	"gem5art/internal/sim"
)

// PicojoulesPerJoule converts the model's pJ/event coefficients to J.
const PicojoulesPerJoule = 1e12

// Component is the energy model of one architectural component: a named
// bundle of dynamic-energy coefficients over activity counters plus
// static leakage.
type Component struct {
	// Name labels the component in stat names (energy.<name>.joules) and
	// telemetry labels. Letters, digits, '_', '-' and '.' only.
	Name string `json:"name"`
	// Dynamic maps an activity-counter stat name (e.g. "sim_insts",
	// "system.l1.misses") to the dynamic energy in picojoules charged per
	// counted event. Counters absent from the attached groups contribute
	// nothing, so one model can cover both engines' stat vocabularies.
	Dynamic map[string]float64 `json:"dynamic_pj,omitempty"`
	// StaticW is static leakage in watts, integrated over simulated time.
	StaticW float64 `json:"static_watts,omitempty"`
	// StaticWPerGHz is additional leakage in watts per GHz of the attached
	// system's frequency domain, for components whose idle power tracks
	// clock frequency.
	StaticWPerGHz float64 `json:"static_watts_per_ghz,omitempty"`
}

// Model is a complete declarative energy model.
type Model struct {
	Name       string      `json:"name"`
	Components []Component `json:"components"`
}

// Validate checks the model's shape, reporting the offending field by
// path (components[i].<field>) so JSON-loaded models fail loudly and
// precisely.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("energy: model field %q: must not be empty", "name")
	}
	if len(m.Components) == 0 {
		return fmt.Errorf("energy: model %q field %q: at least one component is required",
			m.Name, "components")
	}
	seen := map[string]int{}
	for i, c := range m.Components {
		at := fmt.Sprintf("energy: model %q: components[%d]", m.Name, i)
		if c.Name == "" {
			return fmt.Errorf("%s.name: must not be empty", at)
		}
		if !validComponentName(c.Name) {
			return fmt.Errorf("%s.name: %q contains characters outside [a-zA-Z0-9_.-]", at, c.Name)
		}
		if prev, dup := seen[c.Name]; dup {
			return fmt.Errorf("%s.name: %q already declared at components[%d]", at, c.Name, prev)
		}
		seen[c.Name] = i
		for stat, pj := range c.Dynamic {
			if stat == "" {
				return fmt.Errorf("%s.dynamic_pj: empty counter name", at)
			}
			if pj < 0 || math.IsNaN(pj) || math.IsInf(pj, 0) {
				return fmt.Errorf("%s.dynamic_pj[%q]: %v is not a valid pJ/event (must be finite and >= 0)",
					at, stat, pj)
			}
		}
		if c.StaticW < 0 || math.IsNaN(c.StaticW) || math.IsInf(c.StaticW, 0) {
			return fmt.Errorf("%s.static_watts: %v is not a valid leakage (must be finite and >= 0)",
				at, c.StaticW)
		}
		if c.StaticWPerGHz < 0 || math.IsNaN(c.StaticWPerGHz) || math.IsInf(c.StaticWPerGHz, 0) {
			return fmt.Errorf("%s.static_watts_per_ghz: %v is not a valid leakage (must be finite and >= 0)",
				at, c.StaticWPerGHz)
		}
	}
	return nil
}

func validComponentName(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// counters returns the component's counter names, sorted. The fixed
// order makes every energy sum evaluate in a deterministic order, which
// keeps energy totals bit-identical across scheduler worker counts.
func (c *Component) counters() []string {
	names := make([]string, 0, len(c.Dynamic))
	for n := range c.Dynamic {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// energy is the one energy formula, which Attach's read-through stats
// and Evaluate both compute through: the component's dynamic joules,
// value(i) events of names[i] (its counters()) at their pJ/event summed
// in that order, and its static joules, its leakage at freqHz (0 is the
// CPU models' 3 GHz) over secs. Each product is rounded by float64(…)
// before it is added, which forbids fusing the two into one
// multiply-add: arm64, ppc64le, s390x and riscv64 would round once and
// record other joules than amd64.
func (c *Component) energy(names []string, value func(i int) float64, freqHz uint64, secs float64) (dynamic, static float64) {
	pj := 0.0
	for i, name := range names {
		pj += float64(value(i) * c.Dynamic[name])
	}
	if freqHz == 0 {
		freqHz = 3_000_000_000
	}
	staticW := c.StaticW + float64(c.StaticWPerGHz*(float64(freqHz)/1e9))
	return pj / PicojoulesPerJoule, float64(staticW * secs)
}

// perSecond is j joules over secs seconds in watts, 0 for no time.
func perSecond(j, secs float64) float64 {
	if secs > 0 {
		return j / secs
	}
	return 0
}

// Attach registers the model's energy statistics on dst as read-through
// formulas. Activity counters are resolved against dst first, then the
// extra groups in order (the monolithic engine keeps CPU and memory
// stats in separate groups; the parallel engine's merged group holds
// everything). Counters the model names but no group provides are
// returned — they contribute zero energy, letting one preset span both
// engines' vocabularies — so callers can surface them in dry-run checks.
// Static leakage integrates over dst's "sim_ticks" stat (both engines
// register it; a group without one has zero static energy) at the CPU
// models' 3 GHz clock.
//
// Registered stats, all composing with Dump, Values and window-barrier
// merging (formulas read the merged destination group):
//
//	energy.<component>.dynamic_joules
//	energy.<component>.static_joules
//	energy.<component>.joules
//	energy.<component>.avg_watts
//	energy.total_joules
//	energy.avg_watts
//	energy.edp            (joules x seconds: energy-delay product)
//
// Attaching two models (or one model twice) to a group panics via the
// stat framework's duplicate-registration check.
func Attach(dst *sim.StatGroup, m *Model, extra ...*sim.StatGroup) []string {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	secs := func() float64 { return 0 }
	if ticks := dst.Lookup("sim_ticks"); ticks != nil {
		secs = func() float64 { return ticks.Value() / float64(sim.TicksPerSecond) }
	}

	lookup := func(name string) sim.Stat {
		if s := dst.Lookup(name); s != nil {
			return s
		}
		for _, g := range extra {
			if s := g.Lookup(name); s != nil {
				return s
			}
		}
		return nil
	}

	var unmatched []string
	var compJoules []func() float64
	for i := range m.Components {
		c := &m.Components[i]
		names := c.counters()
		stats := make([]sim.Stat, len(names))
		for i, name := range names {
			if stats[i] = lookup(name); stats[i] == nil {
				unmatched = append(unmatched, c.Name+":"+name)
			}
		}
		value := func(i int) float64 {
			if stats[i] == nil {
				return 0
			}
			return stats[i].Value()
		}
		energy := func() (float64, float64) { return c.energy(names, value, 0, secs()) }
		joules := func() float64 {
			dynamic, static := energy()
			return dynamic + static
		}
		compJoules = append(compJoules, joules)

		dst.Formula("energy."+c.Name+".dynamic_joules",
			"dynamic energy attributed to "+c.Name+" (J)", func() float64 {
				dynamic, _ := energy()
				return dynamic
			})
		dst.Formula("energy."+c.Name+".static_joules",
			"static leakage of "+c.Name+" integrated over sim time (J)", func() float64 {
				_, static := energy()
				return static
			})
		dst.Formula("energy."+c.Name+".joules",
			"total energy attributed to "+c.Name+" (J)", joules)
		dst.Formula("energy."+c.Name+".avg_watts",
			"average power of "+c.Name+" over sim time (W)", func() float64 {
				return perSecond(joules(), secs())
			})
	}
	total := func() float64 {
		j := 0.0
		for _, fn := range compJoules {
			j += fn()
		}
		return j
	}
	dst.Formula("energy.total_joules", "total energy, all components (J)", total)
	dst.Formula("energy.avg_watts", "average total power over sim time (W)", func() float64 {
		return perSecond(total(), secs())
	})
	dst.Formula("energy.edp", "energy-delay product (J*s)", func() float64 {
		return total() * secs()
	})
	sort.Strings(unmatched)
	return unmatched
}

// Evaluate computes the statistics Attach registers from a flat
// counter-value map instead of live stat groups — for results that only
// survive as Values() maps (the PARSEC metrics, the GPU model's counter
// struct). simSeconds is the simulated duration the static leakage
// integrates over, at freqHz (0 is Attach's 3 GHz).
func Evaluate(m *Model, values map[string]float64, simSeconds float64, freqHz uint64) (map[string]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, 4*len(m.Components)+3)
	total := 0.0
	for i := range m.Components {
		c := &m.Components[i]
		names := c.counters()
		dynamic, static := c.energy(names, func(i int) float64 { return values[names[i]] },
			freqHz, simSeconds)
		joules := dynamic + static
		total += joules
		out["energy."+c.Name+".dynamic_joules"] = dynamic
		out["energy."+c.Name+".static_joules"] = static
		out["energy."+c.Name+".joules"] = joules
		out["energy."+c.Name+".avg_watts"] = perSecond(joules, simSeconds)
	}
	out["energy.total_joules"] = total
	out["energy.avg_watts"] = perSecond(total, simSeconds)
	out["energy.edp"] = total * simSeconds
	return out, nil
}
