package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// manifest records what a run measured and on what, so that any number
// in a result can be traced to its inputs, build and machine.
type manifest struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	Trace       bool           `json:"trace"`
	Params      map[string]any `json:"params"`
	InputDigest string         `json:"input_digest"`
	GOOS        string         `json:"goos"`
	GOARCH      string         `json:"goarch"`
	CPUModel    string         `json:"cpu_model"`
	NumCPU      int            `json:"num_cpu"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	GoVersion   string         `json:"go_version"`
	VCSRevision string         `json:"vcs_revision"`
	VCSModified string         `json:"vcs_modified"`
}

func newManifest(w workload, opt runOptions) manifest {
	m := manifest{
		Workload:    w.name(),
		Seed:        opt.seed,
		Seconds:     opt.seconds,
		Trace:       opt.trace,
		Params:      w.params(),
		InputDigest: w.inputDigest(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value
			}
		}
	}
	return m
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// printManifest prints the manifest as the report's header line.
func printManifest(out io.Writer, m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	_, err = fmt.Fprintf(out, "# manifest %s\n", b)
	return err
}
