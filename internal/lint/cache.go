package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The result cache makes `make lint` scale with the size of the change,
// not the size of the tree: a package whose sources — and whose
// module-internal transitive dependencies' sources — are unchanged since
// the last run reuses its recorded findings without being parsed or
// type-checked at all. The dependency closure is in the key because the
// reachability checks (tickpurity, allocfree) walk into
// callees across package boundaries: a package can only reach code it
// imports, so hashing the import closure makes the reuse sound. The
// config fingerprint and an analyzer version constant round out the key,
// so policy changes and check changes invalidate everything.

// cacheVersion invalidates every entry when the checks themselves change.
// Bump it whenever a check's behavior or a finding message changes.
const cacheVersion = "imcalint-5"

// cachedFinding and cachedSup are the JSON forms of a finding and a
// suppression; positions are module-root-relative, so the cache is stable
// across checkouts.
type cachedFinding struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Check  string `json:"check"`
	Msg    string `json:"msg"`
	Offset int    `json:"offset,omitempty"`
}

type cachedSup struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Check  string `json:"check"`
	Reason string `json:"reason"`
}

type cacheEntry struct {
	Key      string          `json:"key"`
	Findings []cachedFinding `json:"findings"`
	Sups     []cachedSup     `json:"sups"`
}

func (e *cacheEntry) findings() []Finding {
	out := make([]Finding, len(e.Findings))
	for i, c := range e.Findings {
		out[i] = Finding{
			Pos:   token.Position{Filename: c.File, Line: c.Line, Column: c.Col, Offset: c.Offset},
			Check: c.Check,
			Msg:   c.Msg,
		}
	}
	return out
}

// suppressions returns fresh suppression values: applySuppressions
// mutates the used flag, so cached entries must never be shared between
// runs.
func (e *cacheEntry) suppressions() []*suppression {
	out := make([]*suppression, len(e.Sups))
	for i, c := range e.Sups {
		out[i] = &suppression{file: c.File, line: c.Line, check: c.Check, reason: c.Reason}
	}
	return out
}

type cacheFile struct {
	Version  string                 `json:"version"`
	Packages map[string]*cacheEntry `json:"packages"`
}

type resultCache struct {
	path    string
	entries map[string]*cacheEntry
	dirty   bool
}

// openCache loads the cache under cfg.CacheDir (nil when caching is
// disabled). A missing, unreadable or version-skewed cache file is an
// empty cache, never an error: caching must only ever make a run faster.
func openCache(root string, cfg *Config) *resultCache {
	if cfg.CacheDir == "" {
		return nil
	}
	c := &resultCache{
		path:    filepath.Join(resolvePath(root, cfg.CacheDir), "imcalint.json"),
		entries: make(map[string]*cacheEntry),
	}
	data, err := os.ReadFile(c.path)
	if err != nil {
		return c
	}
	var cf cacheFile
	if json.Unmarshal(data, &cf) != nil || cf.Version != cacheVersion || cf.Packages == nil {
		return c
	}
	c.entries = cf.Packages
	return c
}

func (c *resultCache) get(pkgPath, key string) (*cacheEntry, bool) {
	e, ok := c.entries[pkgPath]
	if !ok || e.Key != key {
		return nil, false
	}
	return e, true
}

func (c *resultCache) put(pkgPath, key string, findings []Finding, sups []*suppression) {
	e := &cacheEntry{Key: key, Findings: []cachedFinding{}, Sups: []cachedSup{}}
	for _, f := range findings {
		e.Findings = append(e.Findings, cachedFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Offset: f.Pos.Offset, Check: f.Check, Msg: f.Msg,
		})
	}
	for _, s := range sups {
		e.Sups = append(e.Sups, cachedSup{File: s.file, Line: s.line, Check: s.check, Reason: s.reason})
	}
	c.entries[pkgPath] = e
	c.dirty = true
}

// save writes the cache back, best-effort: a read-only checkout simply
// runs uncached every time.
func (c *resultCache) save() {
	if !c.dirty {
		return
	}
	data, err := json.Marshal(&cacheFile{Version: cacheVersion, Packages: c.entries})
	if err != nil {
		return
	}
	if os.MkdirAll(filepath.Dir(c.path), 0o755) != nil {
		return
	}
	tmp := c.path + ".tmp"
	if os.WriteFile(tmp, data, 0o644) != nil {
		return
	}
	_ = os.Rename(tmp, c.path)
}

// depHasher computes per-package cache keys: a hash over the package's
// own non-test Go sources plus those of every module-internal package in
// its transitive import closure, the config fingerprint, and the
// analyzer version. Imports are discovered with parser.ImportsOnly, so
// keying is cheap even when the analysis itself would not be.
type depHasher struct {
	root    string
	module  string
	fileH   map[string]string   // file path -> content hash
	imports map[string][]string // dir -> module-internal dep dirs
}

func newDepHasher(root, module string) *depHasher {
	return &depHasher{
		root:    root,
		module:  module,
		fileH:   make(map[string]string),
		imports: make(map[string][]string),
	}
}

// key returns the cache key for the package in dir under the given
// config and enabled-check set.
func (h *depHasher) key(dir string, cfg *Config, enabled map[string]bool) (string, error) {
	closure, err := h.closure(dir)
	if err != nil {
		return "", err
	}
	sum := sha256.New()
	fmt.Fprintln(sum, cacheVersion)
	fmt.Fprintln(sum, h.fingerprint(cfg, enabled))
	for _, d := range closure {
		files, err := goFilesIn(d)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(h.root, d)
		for _, f := range files {
			fh, err := h.fileHash(filepath.Join(d, f))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(sum, "%s/%s %s\n", filepath.ToSlash(rel), f, fh)
		}
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

func (h *depHasher) fingerprint(cfg *Config, enabled map[string]bool) string {
	var on []string
	for name := range enabled {
		on = append(on, name)
	}
	sort.Strings(on)
	host := append([]string(nil), cfg.HostSide...)
	sort.Strings(host)
	rnd := append([]string(nil), cfg.RandAllowed...)
	sort.Strings(rnd)
	return strings.Join([]string{
		"host=" + strings.Join(host, ","),
		"rand=" + strings.Join(rnd, ","),
		"sim=" + cfg.SimPath,
		"telemetry=" + cfg.TelemetryPath,
		"flight=" + cfg.FlightPath,
		"checks=" + strings.Join(on, ","),
	}, ";")
}

func (h *depHasher) fileHash(path string) (string, error) {
	if fh, ok := h.fileH[path]; ok {
		return fh, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	fh := hex.EncodeToString(sum[:])
	h.fileH[path] = fh
	return fh, nil
}

// closure returns dir plus every module-internal package directory
// transitively imported from it, sorted.
func (h *depHasher) closure(dir string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	var walk func(d string) error
	walk = func(d string) error {
		if seen[d] {
			return nil
		}
		seen[d] = true
		out = append(out, d)
		deps, err := h.depsOf(d)
		if err != nil {
			return err
		}
		for _, dep := range deps {
			if err := walk(dep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(dir); err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}

// depsOf parses just the import clauses of dir's non-test sources and
// returns the module-internal dependency directories.
func (h *depHasher) depsOf(dir string) ([]string, error) {
	if deps, ok := h.imports[dir]; ok {
		return deps, nil
	}
	files, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	depSet := make(map[string]bool)
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == h.module {
				depSet[h.root] = true
			} else if strings.HasPrefix(path, h.module+"/") {
				rel := strings.TrimPrefix(path, h.module+"/")
				depSet[filepath.Join(h.root, filepath.FromSlash(rel))] = true
			}
		}
	}
	deps := make([]string, 0, len(depSet))
	for d := range depSet {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	h.imports[dir] = deps
	return deps, nil
}

// goFilesIn lists the non-test Go files of dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, name)
		}
	}
	return out, nil
}
