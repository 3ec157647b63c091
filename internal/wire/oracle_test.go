package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/machine"
)

// This file keeps the encoding/json request codec the hand-written one
// replaced, as the test oracle: oracleScratch.DecodeRequest is the old
// two-pass decode (envelope first, then the loop RawMessage into a
// reset document), and json.Marshal is the canonical encoding. The
// codec tests and FuzzDecodeRequest hold the production codec to them.

// envelope mirrors Request field-for-field but defers the loop document
// and the inline spec to RawMessages.
type envelope struct {
	Version     string          `json:"version"`
	Machine     string          `json:"machine"`
	MachineSpec json.RawMessage `json:"machine_spec"`
	Scheduler   string          `json:"scheduler"`
	Options     Options         `json:"options"`
	Source      string          `json:"source"`
	LoopIndex   int             `json:"loop_index"`
	Loop        json.RawMessage `json:"loop"`
}

// oracleScratch is the pooled decode storage of the oracle decoder.
type oracleScratch struct {
	env envelope
	doc Loop
	req Request
}

var jsonNull = []byte("null")

// DecodeRequest is the reference decode: json.Unmarshal of the
// envelope, then of the loop document into reset pooled storage.
func (s *oracleScratch) DecodeRequest(body []byte) (*Request, error) {
	s.env = envelope{Loop: s.env.Loop[:0], MachineSpec: s.env.MachineSpec[:0]}
	if err := json.Unmarshal(body, &s.env); err != nil {
		return nil, fmt.Errorf("parsing request: %w", err)
	}
	s.req.Reset()
	s.req.Version = s.env.Version
	s.req.Machine = s.env.Machine
	if len(s.env.MachineSpec) > 0 && !bytes.Equal(s.env.MachineSpec, jsonNull) {
		spec := new(machine.Spec)
		if err := json.Unmarshal(s.env.MachineSpec, spec); err != nil {
			return nil, fmt.Errorf("parsing request machine_spec: %w", err)
		}
		s.req.MachineSpec = spec
	}
	s.req.Scheduler = s.env.Scheduler
	s.req.Options = s.env.Options
	s.req.Source = s.env.Source
	s.req.LoopIndex = s.env.LoopIndex
	if len(s.env.Loop) > 0 && !bytes.Equal(s.env.Loop, jsonNull) {
		s.doc.reset(&highWater{values: cap(s.doc.Values), ops: cap(s.doc.Ops), deps: cap(s.doc.Deps), args: math.MaxInt})
		if err := json.Unmarshal(s.env.Loop, &s.doc); err != nil {
			return nil, fmt.Errorf("parsing request loop: %w", err)
		}
		s.req.Loop = &s.doc
	}
	return &s.req, nil
}

// oracleCanonical is the reference canonical encoding of a request:
// json.Marshal of its oracleForm.
func oracleCanonical(r *Request) ([]byte, error) {
	f, err := oracleForm(r)
	if err != nil {
		return nil, err
	}
	return json.Marshal(f)
}

// oracleForm returns r with its loop as a document encoding/json can
// marshal. A normalized source-form request keeps its loop only as
// canonical bytes, so there the loop is json.Unmarshal's decode of
// Canonical, and json.Marshal re-encodes it without appendLoop.
func oracleForm(r *Request) (*Request, error) {
	if r.Loop != nil || r.doc.bytes == "" {
		return r, nil
	}
	c, err := r.Canonical()
	if err != nil {
		return nil, err
	}
	var d Request
	if err := json.Unmarshal(c, &d); err != nil {
		return nil, err
	}
	f := *r
	f.Loop = d.Loop
	return &f, nil
}
