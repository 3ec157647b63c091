package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the benchmark n times in child processes, with seeds
// seed, seed+1, ..., and prints each metric's quartiles and spread, the
// interquartile range as a share of the median.
func repeatRuns(args []string, seed int64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var base []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, inline := strings.Cut(a, "=")
		if name == "repeat" || name == "seed" {
			if !inline {
				i++ // skip the flag's value
			}
			continue
		}
		base = append(base, args[i])
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, append(base, "--seed", strconv.FormatInt(s, 10))...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			os.Stdout.Write(out.Bytes())
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: parsing result: %w", s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: incorrect run (%d of %d failed)", s, res.Failed, res.Attempted)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		fmt.Printf("seed %d: %s\n", s, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-32s %12.6g %12.6g %12.6g %8.4f  %s\n", k, q1, med, q3, spread, units[k])
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := len(s) + 1
		j := int(p * float64(m))
		j = min(max(j, 1), len(s)-1)
		delta := p*float64(m) - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
