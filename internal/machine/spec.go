// Declarative machine descriptions. A Spec is the data form of a
// target: functional-unit classes with instance counts and pipelining,
// per-opcode execution profiles (latency and reservation span), and
// register-file metadata. Spec documents are plain JSON — loadable
// from a file (lsms -machine file.json), embeddable in an lsms-wire/2
// request, and compiled by Build into the immutable Desc every
// scheduler consumes. Validate runs at construction, so a scheduler
// never sees a partial or inconsistent table.
package machine

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// UnitSpec declares one functional-unit class.
type UnitSpec struct {
	// Name identifies the class ("MemPort", "PE", ...); profiles refer
	// to it. Names are unique within a spec.
	Name string `json:"name"`
	// Count is the number of identical instances; ops are pre-assigned
	// round-robin over them (Section 2 / ir.Loop.Finalize).
	Count int `json:"count"`
	// NotPipelined marks the class scarce: its ops reserve an instance
	// for their full latency by default (ProfileSpec.Busy may
	// override), and schedulers damp their slack (Section 4.3) because
	// the reservation pattern leaves them very few issue slots.
	NotPipelined bool `json:"not_pipelined,omitempty"`
}

// ProfileSpec declares the execution profile of a group of opcodes
// that share a unit class, latency, and reservation span.
type ProfileSpec struct {
	// Ops lists assembler mnemonics (Opcode.String values).
	Ops []string `json:"ops"`
	// Unit names the UnitSpec these ops execute on.
	Unit string `json:"unit"`
	// Latency is cycles from issue until the result may be read (≥ 1).
	Latency int `json:"latency"`
	// Busy is cycles the unit is reserved from issue. Zero means the
	// default: Latency on a NotPipelined unit, 1 otherwise.
	Busy int `json:"busy,omitempty"`
}

// RegFileSpec declares one register file. The scheduler treats every
// file as unbounded (the paper's setting — pressure is measured, not
// enforced), so this is descriptive metadata served by /v1/machines.
type RegFileSpec struct {
	Name     string `json:"name"`               // "RR" | "GPR" | "ICR"
	Rotating bool   `json:"rotating,omitempty"` // rotating addressing
	Size     int    `json:"size,omitempty"`     // 0 = unbounded
}

// DefaultRegFiles returns the paper's three register files (Section
// 2.3): rotating RR and ICR, static GPR, all unbounded.
func DefaultRegFiles() []RegFileSpec {
	return []RegFileSpec{
		{Name: "RR", Rotating: true},
		{Name: "GPR"},
		{Name: "ICR", Rotating: true},
	}
}

// Spec is a complete declarative machine description.
type Spec struct {
	Name     string        `json:"name"`
	Units    []UnitSpec    `json:"units"`
	Profiles []ProfileSpec `json:"profiles"`
	// RegFiles defaults to DefaultRegFiles when empty.
	RegFiles []RegFileSpec `json:"reg_files,omitempty"`
}

// knownRegFiles are the register-file names the IR can address.
var knownRegFiles = map[string]bool{"RR": true, "GPR": true, "ICR": true}

// Validate checks the spec for completeness and consistency: a nil
// error guarantees Build succeeds and produces a table a scheduler can
// trust without further checks.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("machine: nil spec")
	}
	if s.Name == "" {
		return fmt.Errorf("machine: spec has no name")
	}
	if len(s.Units) == 0 {
		return fmt.Errorf("machine: spec %q declares no functional units", s.Name)
	}
	unitIdx := make(map[string]int, len(s.Units))
	for i, u := range s.Units {
		if u.Name == "" {
			return fmt.Errorf("machine: spec %q: unit %d has no name", s.Name, i)
		}
		if _, dup := unitIdx[u.Name]; dup {
			return fmt.Errorf("machine: spec %q: duplicate unit %q", s.Name, u.Name)
		}
		if u.Count < 1 {
			return fmt.Errorf("machine: spec %q: unit %q has count %d (want ≥ 1)", s.Name, u.Name, u.Count)
		}
		unitIdx[u.Name] = i
	}
	if len(s.Profiles) == 0 {
		return fmt.Errorf("machine: spec %q declares no execution profiles", s.Name)
	}
	seen := make(map[Opcode]string, NumOpcodes)
	usedUnit := make(map[string]bool, len(s.Units))
	for i, p := range s.Profiles {
		if _, ok := unitIdx[p.Unit]; !ok {
			return fmt.Errorf("machine: spec %q: profile %d names unknown unit %q", s.Name, i, p.Unit)
		}
		usedUnit[p.Unit] = true
		if p.Latency < 1 {
			return fmt.Errorf("machine: spec %q: profile %d (unit %s) has latency %d (want ≥ 1)", s.Name, i, p.Unit, p.Latency)
		}
		if p.Busy < 0 {
			return fmt.Errorf("machine: spec %q: profile %d (unit %s) has negative busy %d", s.Name, i, p.Unit, p.Busy)
		}
		if len(p.Ops) == 0 {
			return fmt.Errorf("machine: spec %q: profile %d (unit %s) lists no ops", s.Name, i, p.Unit)
		}
		for _, m := range p.Ops {
			o, ok := OpcodeByName(m)
			if !ok {
				return fmt.Errorf("machine: spec %q: profile %d: unknown opcode %q", s.Name, i, m)
			}
			if prev, dup := seen[o]; dup {
				return fmt.Errorf("machine: spec %q: opcode %q profiled twice (units %s and %s)", s.Name, m, prev, p.Unit)
			}
			seen[o] = p.Unit
		}
	}
	// A declared-but-unmapped unit is dead weight at best and a typo'd
	// profile at worst; either way the document does not mean what it
	// says, so reject it.
	for _, u := range s.Units {
		if !usedUnit[u.Name] {
			return fmt.Errorf("machine: spec %q: unit %q has no execution profile", s.Name, u.Name)
		}
	}
	for i, rf := range s.RegFiles {
		if !knownRegFiles[rf.Name] {
			return fmt.Errorf("machine: spec %q: reg_files[%d] names unknown file %q (want RR, GPR, or ICR)", s.Name, i, rf.Name)
		}
		if rf.Size < 0 {
			return fmt.Errorf("machine: spec %q: register file %q has negative size", s.Name, rf.Name)
		}
		for j := 0; j < i; j++ {
			if s.RegFiles[j].Name == rf.Name {
				return fmt.Errorf("machine: spec %q: duplicate register file %q", s.Name, rf.Name)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the spec.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	c := &Spec{Name: s.Name}
	c.Units = append([]UnitSpec(nil), s.Units...)
	c.Profiles = make([]ProfileSpec, len(s.Profiles))
	for i, p := range s.Profiles {
		c.Profiles[i] = p
		c.Profiles[i].Ops = append([]string(nil), p.Ops...)
	}
	c.RegFiles = append([]RegFileSpec(nil), s.RegFiles...)
	return c
}

// Build validates the spec and compiles it into an immutable Desc.
// Unit classes get FUKind indices in declaration order; opcodes absent
// from every profile stay unimplemented (Desc.Lookup reports false).
// The desc keeps a private copy of the spec, so later mutation of the
// argument cannot reach a published machine.
func (s *Spec) Build() (*Desc, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := s.Clone()
	if len(c.RegFiles) == 0 {
		c.RegFiles = DefaultRegFiles()
	}
	d := &Desc{
		Name:  c.Name,
		units: append([]UnitSpec(nil), c.Units...),
		info:  make([]OpInfo, NumOpcodes),
		spec:  c,
	}
	unitIdx := make(map[string]int, len(c.Units))
	for i, u := range c.Units {
		unitIdx[u.Name] = i
	}
	for _, p := range c.Profiles {
		k := unitIdx[p.Unit]
		busy := p.Busy
		if busy == 0 {
			if c.Units[k].NotPipelined {
				busy = p.Latency
			} else {
				busy = 1
			}
		}
		for _, m := range p.Ops {
			o, _ := OpcodeByName(m)
			d.info[o] = OpInfo{Kind: FUKind(k), Latency: p.Latency, Busy: busy}
		}
	}
	return d, nil
}

// MustBuild is Build for specs that are program constants.
func (s *Spec) MustBuild() *Desc {
	d, err := s.Build()
	if err != nil {
		panic(err)
	}
	return d
}

// ParseSpec decodes and validates a JSON spec document.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("machine: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Resolve turns a -machine argument into a description: a registered
// name, or, when the argument looks like a path (it contains a path
// separator or ends in .json), a spec document, which it does not
// register.
func Resolve(arg string) (*Desc, error) {
	if m, ok := Lookup(arg); ok {
		return m, nil
	}
	if strings.ContainsAny(arg, "/\\") || strings.HasSuffix(arg, ".json") {
		return LoadFile(arg)
	}
	return nil, fmt.Errorf("unknown machine %q (registered: %v; or pass a spec file)", arg, Names())
}

// LoadFile reads a JSON spec document and builds its machine.
func LoadFile(path string) (*Desc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("machine: %s: %w", path, err)
	}
	return s.Build()
}
