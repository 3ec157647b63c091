package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/mindist"
	"repro/internal/schedcheck"
	"repro/internal/wire"
)

// setups is how many times a run repeats its set-up; setup_s is the
// median, so one slow first-touch of the heap does not decide it.
const setups = 5

// entry is one corpus loop and its wire forms.
type entry struct {
	name   string
	cl     *frontend.CompiledLoop
	irDoc  []byte // IR-form lsms-wire/2 request (serve-miss)
	srcDoc []byte // source-form request (serve-hit)
	hash   string // content address both forms share
}

// buildCorpus builds the loopgen corpus and, when wireForms is set,
// encodes both request forms of every loop and their content hash.
func buildCorpus(cfg config, wireForms bool) ([]*entry, error) {
	s, err := loopgen.Build(loopgen.Options{Size: cfg.size, Seed: cfg.corpusSeed})
	if err != nil {
		return nil, err
	}
	out := make([]*entry, len(s.Loops))
	idx := 0
	for i, l := range s.Loops {
		// A source holding several loops contributes consecutive entries;
		// LoopIndex selects each one in the source form.
		if i > 0 && s.Loops[i-1].Source == l.Source {
			idx++
		} else {
			idx = 0
		}
		e := &entry{name: l.Name, cl: l.CL}
		out[i] = e
		if !wireForms {
			continue
		}
		req, err := wire.NewRequest(l.CL.Loop, "", wire.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		if e.irDoc, err = json.Marshal(req); err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		src := &wire.Request{Version: wire.Version, Machine: req.Machine, Source: l.Source, LoopIndex: idx}
		if e.srcDoc, err = json.Marshal(src); err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		if e.hash, err = req.Hash(); err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
	}
	return out, nil
}

// setupTimes are a run's set-up samples on both clocks.
type setupTimes struct {
	wall, cpu []time.Duration
}

// timedSetups runs set-up `setups` times from a collected heap and
// returns their times and the last set-up's value; release discards the
// earlier ones outside the timing.
func timedSetups[T any](f func() (T, error), release func(T)) (setupTimes, T, error) {
	var st setupTimes
	var v T
	for i := 0; i < setups; i++ {
		if i > 0 && release != nil {
			release(v)
		}
		runtime.GC()
		cpu0, start := processCPU(), time.Now()
		var err error
		if v, err = f(); err != nil {
			return st, v, err
		}
		st.wall = append(st.wall, time.Since(start))
		st.cpu = append(st.cpu, processCPU()-cpu0)
	}
	return st, v, nil
}

// lifetimeFloor is the exact MaxLive lower bound ⌈ΣMinLT(v)/II⌉ over the
// loop's RR variants; MinAvg rounds each lifetime up first and is not a
// bound.
func lifetimeFloor(l *ir.Loop, md *mindist.Table) int64 {
	sum := 0
	for _, v := range l.Values {
		if v.File == ir.RR && v.IsVariant() {
			sum += mindist.MinLT(l, md, v.ID)
		}
	}
	return int64((sum + md.II - 1) / md.II)
}

// served is a checked response body and what it says about quality.
type served struct {
	body                    []byte
	ii, mii, maxLive, floor int64
	iiAttempts, placements  int64
	forces, ejections       int64
}

// checkBody decodes a 200 response body for e's loop and checks it: the
// right hash, a complete schedule that passes schedcheck, II at or above
// MII, and MaxLive at or above the lifetime floor.
func checkBody(e *entry, body []byte) (*served, error) {
	var resp wire.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("%s: decoding response: %w", e.name, err)
	}
	l := e.cl.Loop
	switch {
	case !resp.OK:
		return nil, fmt.Errorf("%s: response not ok", e.name)
	case resp.Hash != e.hash:
		return nil, fmt.Errorf("%s: response hash %s, want %s", e.name, resp.Hash, e.hash)
	case len(resp.Times) != len(l.Ops):
		return nil, fmt.Errorf("%s: %d times for %d ops", e.name, len(resp.Times), len(l.Ops))
	case resp.II < resp.Bounds.MII || resp.Bounds.MII < 1:
		return nil, fmt.Errorf("%s: II %d below MII %d", e.name, resp.II, resp.Bounds.MII)
	}
	s := &ir.Schedule{II: resp.II, Time: resp.Times}
	if v := schedcheck.Check(l, s); len(v) > 0 {
		return nil, fmt.Errorf("%s: schedcheck: %v", e.name, v[0])
	}
	md, err := mindist.Compute(l, resp.II)
	if err != nil {
		return nil, fmt.Errorf("%s: MinDist at II %d: %w", e.name, resp.II, err)
	}
	floor := lifetimeFloor(l, md)
	if int64(resp.MaxLive) < floor {
		return nil, fmt.Errorf("%s: MaxLive %d below ⌈ΣMinLT/II⌉ = %d", e.name, resp.MaxLive, floor)
	}
	return &served{
		body: append([]byte(nil), body...),
		ii:   int64(resp.II), mii: int64(resp.Bounds.MII),
		maxLive: int64(resp.MaxLive), floor: floor,
		iiAttempts: int64(resp.Effort.IIAttempts), placements: resp.Effort.Placements,
		forces: resp.Effort.Forces, ejections: resp.Effort.Ejections,
	}, nil
}

// servedQuality sums quality over the distinct loops served.
func servedQuality(ref map[string]*served) quality {
	var q quality
	for _, s := range ref {
		q.loops++
		q.ii += s.ii
		q.mii += s.mii
		q.maxLive += s.maxLive
		q.floor += s.floor
		q.iiAttempts += s.iiAttempts
		q.placements += s.placements
		q.forces += s.forces
		q.ejections += s.ejections
	}
	return q
}
