package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"simtmp/internal/mpx"
)

// simDigest hashes the simulated outputs of a runtime: matches,
// simulated seconds (bit-exact), engine iterations, SIMT counters and
// bytes moved. A change that touches only host cost leaves it
// unchanged for every seed.
func simDigest(st mpx.Stats) string {
	h := sha256.New()
	fmt.Fprintf(h, "matches=%d sim=%x iterations=%d counters=%+v bytes=%d",
		st.Matches, math.Float64bits(st.SimSeconds), st.Iterations, st.Counters, st.BytesMoved)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recordedDigests maps workload → seed → digest for the default seeds,
// as written by -write-digests.
//
//go:embed digests.json
var recordedDigests []byte

// digestSeeds are the default seeds whose digests are recorded.
const digestSeeds = 256

// recorded returns the recorded digest of a workload and seed, if any.
func recorded(workload string, seed int64) (string, bool, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(recordedDigests, &all); err != nil {
		return "", false, fmt.Errorf("digests.json: %w", err)
	}
	d, ok := all[workload][strconv.FormatInt(seed, 10)]
	return d, ok, nil
}

// writeDigests records the digest of seeds 0..digestSeeds-1 of every
// workload: set-up, then digestRounds untimed rounds.
func writeDigests(path string, log io.Writer) error {
	all := map[string]map[string]string{}
	for _, s := range specs {
		all[s.name] = map[string]string{}
		for seed := int64(0); seed < digestSeeds; seed++ {
			var tl tally
			w, _, err := setup(s, seed, false, &tl)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, seed, err)
			}
			first := w.warmup()
			for r := first; r < first+digestRounds; r++ {
				w.prepare(r)
				if err := w.round(r, nil, &tl); err != nil {
					return fmt.Errorf("%s seed %d: %w", s.name, seed, err)
				}
			}
			if tl.failed > 0 {
				return fmt.Errorf("%s seed %d: %d failed operations (first: %s)", s.name, seed, tl.failed, tl.first)
			}
			all[s.name][strconv.FormatInt(seed, 10)] = simDigest(w.runtime().Stats())
		}
		fmt.Fprintf(log, "digests: %s done\n", s.name)
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sourceDigest hashes every Go source and module file under root,
// skipping dot-directories (the build output among them): the sources
// run.sh has just built the binary from.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if path != root && strings.HasPrefix(name, ".") {
			if d.IsDir() {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			paths = append(paths, "./"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	list := sha256.New()
	for _, p := range paths {
		sum, err := fileSHA256(filepath.Join(root, filepath.FromSlash(p)))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(list, "%s  %s\n", sum, p)
	}
	return hex.EncodeToString(list.Sum(nil)), nil
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
