package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Bench is one gated campaign: bcwan-bench measures every row that has a
// Run, bcwan-benchgate looks a row up by Kind and calls its Gate. The
// campaign's document type — config, derived ratios and result rows, in
// the file that runs it — is the only declaration of its JSON schema.
type Bench struct {
	// Kind is the bcwan-bench -only and bcwan-benchgate -kind name.
	Kind string
	// Run measures the campaign (quick: its seconds-scale config), prints
	// the table to w and, unless resultsDir is empty, writes the document
	// there as BENCH_<kind>.json. Nil for a row that only gates another
	// row's document.
	Run func(quick bool, resultsDir string, w io.Writer) error
	// Gate loads two documents of this kind and returns one message per
	// regression; an error means the pair cannot be compared.
	Gate func(baselinePath, candidatePath string) ([]string, error)
}

// Benches is every campaign CI gates, in bcwan-bench's run order.
var Benches = []Bench{
	newBench("blockconnect", DefaultBlockConnectConfig(), quickBlockConnectConfig(), RunBlockConnect, WriteBlockConnect, gateBlockConnect),
	newBench("reorg", DefaultReorgConfig(), quickReorgConfig(), RunReorg, WriteReorg, gateReorg),
	newBench("relay", DefaultRelayBenchConfig(), quickRelayBenchConfig(), RunRelayBench, WriteRelayBench, gateRelay),
	newBench("sync", DefaultSyncBenchConfig(), quickSyncBenchConfig(), RunSyncBench, WriteSyncBench, gateSync),
	newBench("channel", DefaultChannelBenchConfig(), quickChannelBenchConfig(), RunChannelBench, WriteChannelBench, gateChannel),
	newBench("city", DefaultCityConfig(), QuickCityConfig(), RunCityBench, WriteCityBench, gateCity),
	{Kind: "connect-scaling", Gate: gateFiles(gateConnectScaling)},
}

// benchDoc is implemented by every document through its embedded header.
type benchDoc interface{ header() *docHeader }

// docHeader is what every BENCH document carries besides its campaign's
// own schema.
type docHeader struct {
	// Host says where the document was measured: a block-connect time
	// read without its GOMAXPROCS cannot show whether it scaled.
	Host hostStamp `json:"host"`
	// path is the file readDoc loaded the document from, for messages.
	path string
}

func (h *docHeader) header() *docHeader { return h }

type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func newBench[C, D any, P interface {
	*D
	benchDoc
}](kind string, def, quick C, run func(C) (P, error), report func(io.Writer, P), gate func(base, cand P) ([]string, error)) Bench {
	return Bench{
		Kind: kind,
		Run: func(q bool, resultsDir string, w io.Writer) error {
			cfg := def
			if q {
				cfg = quick
			}
			doc, err := run(cfg)
			if err != nil {
				return err
			}
			report(w, doc)
			if resultsDir == "" {
				return nil
			}
			path := filepath.Join(resultsDir, "BENCH_"+kind+".json")
			if err := writeDoc(path, doc); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n\n", path)
			return nil
		},
		Gate: gateFiles(gate),
	}
}

// gateFiles lifts a gate over two typed documents to one over two files.
func gateFiles[D any, P interface {
	*D
	benchDoc
}](gate func(base, cand P) ([]string, error)) func(baselinePath, candidatePath string) ([]string, error) {
	return func(baselinePath, candidatePath string) ([]string, error) {
		base, cand := P(new(D)), P(new(D))
		if err := readDoc(baselinePath, base); err != nil {
			return nil, err
		}
		if err := readDoc(candidatePath, cand); err != nil {
			return nil, err
		}
		return gate(base, cand)
	}
}

// writeDoc stamps the host on doc and writes it as indented JSON to
// path, creating parent directories as needed.
func writeDoc(path string, doc benchDoc) error {
	doc.header().Host = hostStamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readDoc(path string, doc benchDoc) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	doc.header().path = path
	return nil
}

// rowByMode returns the first row measured in mode, or nil: the relay,
// sync and channel documents all key their rows by a mode string.
func rowByMode[R interface{ mode() string }](rows []R, mode string) R {
	for _, r := range rows {
		if r.mode() == mode {
			return r
		}
	}
	var none R
	return none
}

// waitFor polls cond every 200µs until it holds or timeout passes. The
// benches run on an in-memory, fault-free mesh, so a timeout means the
// path under measurement is broken, not slow.
func waitFor(prefix string, timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: timed out waiting for %s", prefix, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
