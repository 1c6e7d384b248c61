package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host identifies the machine and the code a run measured.
type host struct {
	VCPUs     int    `json:"vcpus"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	// Commit is the git HEAD when the checkout is a repository, else
	// "none"; SourceDigest hashes every Go source and module file
	// either way, so two runs of the same code always match.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func fingerprint() host {
	h := host{VCPUs: runtime.NumCPU(), CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "none"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	// Keep git from searching above the checkout for a repository.
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.SourceDigest = sourceDigest(".")
	return h
}

// sourceDigest hashes the path and content of every .go, go.mod and
// go.sum file under root, skipping hidden directories (build output).
func sourceDigest(root string) string {
	sum := sha256.New()
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
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(sum, path+"\x00")
		_, err = io.Copy(sum, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}
