// Command pepcbench regenerates the tables and figures of the paper's
// evaluation (§5–§7) and prints the measured series. The figures carry
// the paper's shapes; absolute numbers are gated by bench/pepcmark.
//
// Usage:
//
//	pepcbench -fig 5              # regenerate Figure 5
//	pepcbench -fig faults         # robustness: outage sweep + chaos soak
//	pepcbench -fig 7 -lanes sum   # multi-lane sweeps: auto, parallel or sum
//	pepcbench -table 1            # print Table 1
//	pepcbench -all                # every table and figure
//	pepcbench -all -scale full    # paper-scale populations (slow, GBs)
//	pepcbench -fig 12 -users 500000 -packets 1000000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"pepc/internal/experiments"
)

// parseArgs turns the command line into the experiments to run and their
// scale; names is nil for -list. Unknown flags (the flag package's
// "provided but not defined") and bad values are errors, reported on
// stderr before it returns.
func parseArgs(args []string, stderr io.Writer) (names []string, sc experiments.Scale, err error) {
	fs := flag.NewFlagSet("pepcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(format string, a ...any) ([]string, experiments.Scale, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(stderr, "pepcbench: %v\n", err)
		return nil, sc, err
	}
	fig := fs.String("fig", "", "figure to regenerate: a number (4-13, 15) or a name (e.g. faults)")
	table := fs.Int("table", 0, "table number to print (1-2)")
	all := fs.Bool("all", false, "run every table and figure")
	scale := fs.String("scale", "quick", "experiment scale: quick or full")
	users := fs.Int("users", 0, "override max user population")
	packets := fs.Int("packets", 0, "override measured packets per point")
	events := fs.Int("events", 0, "override measured signaling events per point")
	lanes := fs.String("lanes", "auto", "multi-lane sweeps (fig 7 cores, sockio queues, cluster nodes): auto, parallel (concurrent lanes) or sum (measure-and-sum, marked derived)")
	faultSeed := fs.Uint64("faultseed", 0, "faults experiment: injector seed (0 = default)")
	faultEpochs := fs.Int("faultepochs", 0, "faults experiment: chaos soak epochs (0 = default)")
	list := fs.Bool("list", false, "list available experiments")
	if err := fs.Parse(args); err != nil {
		return nil, sc, err
	}
	if *list {
		return nil, sc, nil
	}

	switch *scale {
	case "quick":
		sc = experiments.Quick
	case "full":
		sc = experiments.Full
	default:
		return fail("unknown scale %q", *scale)
	}
	if *users > 0 {
		sc.MaxUsers = *users
	}
	if *packets > 0 {
		sc.PacketsPerPoint = *packets
	}
	if *events > 0 {
		sc.EventsPerPoint = *events
	}
	switch *lanes {
	case "auto", "parallel", "sum":
	default:
		return fail("-lanes must be auto, parallel or sum (got %q)", *lanes)
	}
	sc.Lanes = *lanes
	sc.FaultSeed = *faultSeed
	sc.FaultEpochs = *faultEpochs

	switch {
	case *all:
		names = experiments.Names()
	case *fig != "":
		name := *fig
		// Bare numbers keep the historical spelling: -fig 5 means fig5.
		if _, err := strconv.Atoi(name); err == nil {
			name = "fig" + name
		}
		names = []string{name}
	case *table != 0:
		names = []string{fmt.Sprintf("table%d", *table)}
	default:
		fs.Usage()
		return fail("one of -fig, -table, -all or -list is required")
	}
	return names, sc, nil
}

func main() {
	names, sc, err := parseArgs(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // parseArgs said why
	}
	if names == nil {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	for _, name := range names {
		start := time.Now()
		res, err := experiments.Run(name, sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pepcbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
	}
}
