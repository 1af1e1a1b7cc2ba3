package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// runAA is the A/A check: every workload twice on this build, the second
// set in reverse order, each run its own process. It prints both sets side
// by side with the relative gap and the bound, and returns non-zero when
// any end-to-end gap — in the metric's worse direction — exceeds its bound.
func runAA(cfg runConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -aa:", err)
		return 1
	}
	one := func(name string) (map[string]metricValue, error) {
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Seconds), "-trace", "0"}
		if cfg.Short {
			args = append(args, "-short")
		}
		out, err := exec.Command(exe, args...).Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		var line resultLine
		if err := json.Unmarshal(last, &line); err != nil {
			return nil, fmt.Errorf("%s: result line: %w", name, err)
		}
		if !line.Correct {
			return nil, fmt.Errorf("%s: %d of %d studies failed", name, line.Failed, line.Attempted)
		}
		return line.Metrics, nil
	}
	sets := [2]map[string]map[string]metricValue{{}, {}}
	for set := range sets {
		for i := range workloads {
			w := workloads[i]
			if set == 1 {
				w = workloads[len(workloads)-1-i]
			}
			fmt.Fprintf(os.Stderr, "set %c: %s\n", 'A'+set, w.Name)
			m, err := one(w.Name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench -aa:", err)
				return 1
			}
			sets[set][w.Name] = m
		}
	}
	over := 0
	fmt.Printf("%-12s %-18s %14s %14s %8s %7s\n", "workload", "metric", "set A", "set B", "gap", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w.Name][d.Name].Value, sets[1][w.Name][d.Name].Value
			// The gap is how much worse B is than A, as a share of A
			// (negative when B is better). Both sets are the same code, so
			// A being worse than B counts just the same.
			gap, back := worseBy(d, a, b), worseBy(d, b, a)
			mark := ""
			if gap > d.Bound || back > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-12s %-18s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", w.Name, d.Name, a, b, 100*gap, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		fmt.Printf("%d end-to-end gaps exceed their bound\n", over)
		return 1
	}
	fmt.Println("every end-to-end gap is within its bound")
	return 0
}

// worseBy is how much worse `to` is than `from`, as a share of `from`.
func worseBy(d metricDef, from, to float64) float64 {
	if d.Better == "higher" {
		return (from - to) / from
	}
	return (to - from) / from
}
