// bcwan-benchgate compares a freshly measured benchmark JSON against
// the committed baseline and exits non-zero on a regression. CI runs it
// after bcwan-bench so that chain-level performance properties — block
// connect throughput, signature-cache effectiveness, the O(depth)
// reorg-cost bound of the undo-journal design, relay bytes, snapshot
// bootstrap and channel settlement speedups, city-scale delivery — gate
// every merge.
//
//	bcwan-benchgate -kind relay \
//	    -baseline results/BENCH_relay.json -candidate /tmp/BENCH_relay.json
//	bcwan-benchgate -kind connect-scaling \
//	    -baseline /tmp/serial/BENCH_blockconnect.json -candidate /tmp/parallel/BENCH_blockconnect.json
//
// The kinds are the rows of experiments.Benches. Each gate, its
// thresholds (named constants, deliberately loose so shared CI runners
// do not flake) and the reasoning behind them live beside the campaign
// that defines the property it guards, in internal/experiments. See
// README.md for what to do when this gate fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bcwan/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcwan-benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	gates := make(map[string]func(baselinePath, candidatePath string) ([]string, error))
	var kinds []string
	for _, b := range experiments.Benches {
		gates[b.Kind] = b.Gate
		kinds = append(kinds, b.Kind)
	}
	fs := flag.NewFlagSet("bcwan-benchgate", flag.ContinueOnError)
	kind := fs.String("kind", "", "benchmark document kind: "+strings.Join(kinds, "|"))
	baselinePath := fs.String("baseline", "", "committed baseline JSON (required)")
	candidatePath := fs.String("candidate", "", "freshly measured JSON (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baselinePath == "" || *candidatePath == "" {
		return fmt.Errorf("-baseline and -candidate are required")
	}
	gate, ok := gates[*kind]
	if !ok {
		return fmt.Errorf("-kind must be one of %s, got %q", strings.Join(kinds, ", "), *kind)
	}
	failures, err := gate(*baselinePath, *candidatePath)
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(out, "FAIL:", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(failures), *baselinePath)
	}
	fmt.Fprintf(out, "PASS: %s within thresholds of %s\n", *candidatePath, *baselinePath)
	return nil
}
