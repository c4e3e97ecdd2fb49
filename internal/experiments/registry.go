package experiments

import (
	"fmt"
	"sort"
)

// runner regenerates one table or figure.
type runner func(Scale) (Result, error)

var registry = map[string]runner{
	"table1":  func(Scale) (Result, error) { return Table1(), nil },
	"table2":  func(Scale) (Result, error) { return Table2(), nil },
	"fig4":    Fig4,
	"fig5":    Fig5,
	"fig6":    Fig6,
	"fig7":    Fig7,
	"fig8":    Fig8,
	"fig9":    Fig9,
	"fig10":   Fig10,
	"fig11":   Fig11,
	"fig12":   Fig12,
	"fig13":   Fig13,
	"fig14":   Fig14,
	"fig15":   Fig15,
	"faults":  Faults,
	"sockio":  Sockio,
	"cluster": ClusterFig,
	"lat":     LatFig,
	"pfcp":    PFCPFig,
}

// Run regenerates the named table or figure.
func Run(name string, sc Scale) (Result, error) {
	r, ok := registry[name]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(sc)
}

// Names lists every registered experiment in order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		// tables first, then figures numerically.
		ti, tj := out[i][0] == 't', out[j][0] == 't'
		if ti != tj {
			return ti
		}
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}
