package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// revision names the source a run measured: the git commit and whether
// the work tree has uncommitted changes to tracked files, or, outside a
// git work tree, a digest of every Go source and module file under
// root (dirty is then nil).
func revision(root string) (string, *bool) {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		rev := strings.TrimSpace(string(out))
		status, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
		if err == nil {
			dirty := len(strings.TrimSpace(string(status))) > 0
			return rev, &dirty
		}
		return rev, nil
	}
	return sourceDigest(root), nil
}

// sourceDigest hashes the relative paths and contents of root's .go,
// go.mod and go.sum files, skipping hidden directories (build output
// lives in .bench_build).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// resetPeakRSS restarts the peak-RSS high-water mark, so the next
// reading covers only what ran since. Where the kernel refuses, the
// reading stays the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is this process's peak resident set size (VmHWM), in MiB.
// VmHWM belongs to the current program image, so a launcher that
// exec'd this binary does not contribute to it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
