package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/proc"
)

// Tab1 reproduces Table I: benchmark characterization — function and
// v-table counts, text size, functions reordered by BOLT, functions on
// the stack at replacement time, direct call sites patched, and max RSS
// under the original binary, offline BOLT, and OCOLOS. One representative
// input per workload, like the paper.
func Tab1(cfg Config) error {
	cfg.defaults()
	repInput := map[string]string{
		"sqldb":   "read_only",
		"docdb":   "read_update",
		"kvcache": "set10_get90",
		"rtlsim":  "dhrystone",
	}
	type col struct {
		funcs, vtables                   int
		textMiB                          float64
		reordered, onStack, sitesPatched float64 // averaged across inputs
		rssOrig, rssBolt, rssOco         float64
	}
	cols := map[string]*col{}
	order := ServerWorkloads()

	for _, name := range order {
		w, err := Workload(name)
		if err != nil {
			return err
		}
		input := repInput[name]
		st := w.Binary.Stats()
		c := &col{
			funcs:   st.Funcs,
			vtables: st.VTables,
			textMiB: float64(st.TextBytes) / (1 << 20),
		}
		cols[name] = c

		// RSS rows use the representative input, as in the paper's note.
		_, p, _, err := measureBinary(w, w.Binary, input, cfg.threads(w.Threads), cfg.warm(), cfg.window())
		if err != nil {
			return err
		}
		c.rssOrig = float64(p.MaxRSS()) / (1 << 20)

		boltBin, err := cfg.OracleBolt(w, input)
		if err != nil {
			return err
		}
		_, pb, _, err := measureBinary(w, boltBin, input, cfg.threads(w.Threads), cfg.warm(), cfg.window())
		if err != nil {
			return err
		}
		c.rssBolt = float64(pb.MaxRSS()) / (1 << 20)

		// Replacement counters are averaged across every input of the
		// workload, matching the paper's "avg (across inputs)" rows.
		inputs := w.Inputs
		if cfg.Quick && len(inputs) > 2 {
			inputs = inputs[:2]
		}
		for _, in := range inputs {
			_, ctl, po, err := cfg.OCOLOSRun(w, in, core.Options{})
			if err != nil {
				return err
			}
			rs := ctl.Reports[0]
			c.onStack += float64(rs.FuncsOnStack)
			c.sitesPatched += float64(rs.CallSitesPatched + rs.VTableSlotsPatched)
			if cb := ctl.CurrentBinary(); cb != nil {
				c.reordered += float64(len(cb.AddrMap))
			}
			if in == input { // RSS on the same representative input as above
				c.rssOco = float64(po.MaxRSS()) / (1 << 20)
			}
		}
		n := float64(len(inputs))
		c.onStack /= n
		c.sitesPatched /= n
		c.reordered /= n
	}

	cfg.printf("Table I: benchmark characterization\n")
	cfg.printf("%-24s", "")
	for _, n := range order {
		cfg.printf("%12s", n)
	}
	cfg.printf("\n")
	row := func(label string, f func(*col) string) {
		cfg.printf("%-24s", label)
		for _, n := range order {
			cfg.printf("%12s", f(cols[n]))
		}
		cfg.printf("\n")
	}
	row("functions", func(c *col) string { return itoa(c.funcs) })
	row("v-tables", func(c *col) string { return itoa(c.vtables) })
	row(".text (MiB)", func(c *col) string { return f2(c.textMiB) })
	row("avg funcs reordered", func(c *col) string { return f2(c.reordered) })
	row("avg funcs on stack", func(c *col) string { return f2(c.onStack) })
	row("avg pointers patched", func(c *col) string { return f2(c.sitesPatched) })
	row("max RSS orig (MiB)", func(c *col) string { return f2(c.rssOrig) })
	row("max RSS BOLT (MiB)", func(c *col) string { return f2(c.rssBolt) })
	row("max RSS OCOLOS (MiB)", func(c *col) string { return f2(c.rssOco) })
	return nil
}

// Tab2 reproduces Table II: the fixed costs of one OCOLOS optimization
// round per workload — perf2bolt (profile conversion) time, BOLT
// (optimizer) time, and the stop-the-world replacement time. Conversion
// and optimization are real host computations; replacement time is the
// modeled pause the target experiences.
func Tab2(cfg Config) error {
	cfg.defaults()
	repInput := map[string]string{
		"sqldb":   "read_only",
		"docdb":   "read_update",
		"kvcache": "set10_get90",
		"rtlsim":  "dhrystone",
	}
	cfg.printf("Table II: fixed costs of code replacement\n")
	cfg.printf("%-26s", "")
	for _, n := range ServerWorkloads() {
		cfg.printf("%12s", n)
	}
	cfg.printf("\n")

	type costs struct{ p2b, bolt, pause float64 }
	res := map[string]costs{}
	for _, name := range ServerWorkloads() {
		w, err := Workload(name)
		if err != nil {
			return err
		}
		threads := cfg.threads(w.Threads)
		d, err := w.NewDriver(repInput[name], threads)
		if err != nil {
			return err
		}
		p, err := proc.Load(w.Binary, proc.Options{Threads: threads, Handler: d})
		if err != nil {
			return err
		}
		ctl, err := core.New(p, w.Binary, core.Options{})
		if err != nil {
			return err
		}
		p.RunFor(cfg.warm())
		raw := ctl.Profile(cfg.profileDur())
		bs, err := ctl.BuildOptimized(raw)
		if err != nil {
			return err
		}
		rs, err := ctl.Replace(bs.Result.Binary)
		if err != nil {
			return err
		}
		res[name] = costs{p2b: bs.Perf2BoltSeconds, bolt: bs.BoltSeconds, pause: rs.PauseSeconds}
	}
	row := func(label string, f func(costs) string) {
		cfg.printf("%-26s", label)
		for _, n := range ServerWorkloads() {
			cfg.printf("%12s", f(res[n]))
		}
		cfg.printf("\n")
	}
	row("perf2bolt (host ms)", func(c costs) string { return f2(c.p2b * 1e3) })
	row("bolt (host ms)", func(c costs) string { return f2(c.bolt * 1e3) })
	row("replacement (sim ms)", func(c costs) string { return f2(c.pause * 1e3) })
	return nil
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
