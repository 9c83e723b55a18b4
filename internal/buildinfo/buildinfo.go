// Package buildinfo reports the identity of the running binary — module
// version, Go toolchain, and the VCS stamp the Go linker embeds — so that
// every binary's -version flag and spacx-serve's /version endpoint name the
// exact build that produced a result. It is a thin, cached veneer over
// runtime/debug.ReadBuildInfo that degrades gracefully in tests and
// unstamped builds.
package buildinfo

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// Info identifies one build of a spacx binary.
type Info struct {
	// Module is the main module path ("spacx").
	Module string `json:"module"`
	// Version is the main module version ("(devel)" for local builds).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit hash, empty when the build was not made
	// from a checkout (e.g. `go test` binaries).
	Revision string `json:"revision,omitempty"`
	// RevisionTime is the commit timestamp (RFC 3339), when stamped.
	RevisionTime string `json:"revision_time,omitempty"`
	// Dirty reports uncommitted changes at build time.
	Dirty bool `json:"dirty,omitempty"`
}

var (
	once   sync.Once
	cached Info
)

// Get reads the build information once and caches it; the zero-ish Info
// returned when debug.ReadBuildInfo fails still has a usable Version.
func Get() Info {
	once.Do(func() {
		cached = Info{Module: "spacx", Version: "unknown", GoVersion: "unknown"}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Path != "" {
			cached.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			cached.Version = bi.Main.Version
		}
		cached.GoVersion = bi.GoVersion
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				cached.Revision = s.Value
			case "vcs.time":
				cached.RevisionTime = s.Value
			case "vcs.modified":
				cached.Dirty = s.Value == "true"
			}
		}
	})
	return cached
}

// String renders the one-line form printed by the CLIs' -version flag:
//
//	spacx (devel) go1.24.0 rev 0123abcd (dirty)
func (i Info) String() string {
	s := fmt.Sprintf("%s %s %s", i.Module, i.Version, i.GoVersion)
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		s += " rev " + rev
		if i.RevisionTime != "" {
			s += " (" + i.RevisionTime + ")"
		}
	}
	if i.Dirty {
		s += " (dirty)"
	}
	return s
}
