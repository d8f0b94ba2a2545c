package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// printReport prints every operation type's median, tail and sample
// count, then the workload's own figures, ahead of the JSON line.
func printReport(name string, seed int64, x *runner, w workload) {
	fmt.Printf("mqbench %s seed=%d: attempted=%d failed=%d wrong=%d\n",
		name, seed, x.attempted, x.failed, x.wrong)
	kinds := make([]string, 0, len(x.lat))
	for k := range x.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		s := summarize(x.lat[k])
		tail := "-"
		if s.tailPctile > 0 {
			tail = fmt.Sprintf("p%g=%.4f ms", s.tailPctile, s.tail)
		}
		fmt.Printf("  %-10s n=%-6d p50=%.4f ms  tail %s\n", k, s.n, s.p50, tail)
	}
	for _, f := range w.extra(x) {
		fmt.Printf("  %-22s %12.4f %s\n", f.name, f.value, f.unit)
	}
}

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each workload n times, one process per run with seeds
// 1..n, and prints every end-to-end metric's median and quartiles with
// the quartile spread as a share of the median, next to its bound from
// BENCHMARK.json (read from the working directory).
func steadiness(only string, n, seconds int) error {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range bf.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		vals := map[string][]float64{}
		var shares []string
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			res, err := lastJSON(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect", wl.Name, seed)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			line := fmt.Sprintf("%s seed %d:", wl.Name, seed)
			for _, e := range bf.EndToEnd {
				if m, ok := res.Metrics[e.Name]; ok {
					vals[e.Name] = append(vals[e.Name], m.Value)
					line += fmt.Sprintf(" %s=%.4g", e.Name, m.Value)
				}
			}
			fmt.Println(line)
		}
		fmt.Printf("== %s: %d runs of %ds, failed/attempted %s\n", wl.Name, n, seconds, strings.Join(shares, " "))
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, e := range bf.EndToEnd {
			v := vals[e.Name]
			if len(v) < 2 {
				continue
			}
			q1, med, q3 := quartiles(v)
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %7.1f%% %5.0f%% %s\n",
				e.Name, q1, med, q3, 100*ratio(q3-q1, med), 100*e.Bound, e.Unit)
		}
	}
	return nil
}

func lastJSON(out []byte) (*resultOut, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res resultOut
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last output line is not the result: %w", err)
	}
	return &res, nil
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// "exclusive" method) and returns q1, median, q3.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(m)
		delta := m - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
