package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// referenceJSON pins every cell's virtual results: workload → seed key →
// cell → value name → value. A host-speed change must leave them exactly
// equal. Regenerate an entry with -update, and say why in the change log.
//
//go:embed reference.json
var referenceJSON []byte

type reference map[string]map[string]map[string]values

// allSeeds keys the reference of a workload whose inputs do not depend on
// the seed.
const allSeeds = "all"

func loadReference() (reference, error) { return parseReference(referenceJSON) }

func parseReference(b []byte) (reference, error) {
	ref := reference{}
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

func seedKey(w workloadDef, seed uint64) string {
	if !w.seeded {
		return allSeeds
	}
	return strconv.FormatUint(seed, 10)
}

// pinned returns the cells pinned for the workload and seed, or nil.
func (r reference) pinned(w workloadDef, seed uint64) map[string]values {
	return r[w.name][seedKey(w, seed)]
}

// equal reports whether two cells' virtual results are identical.
func (v values) equal(o values) bool {
	if len(v) != len(o) {
		return false
	}
	for k, x := range v {
		if y, ok := o[k]; !ok || x != y {
			return false
		}
	}
	return true
}

// diff describes how got departs from want, one value per line.
func (v values) diff(want values) string {
	keys := map[string]bool{}
	for k := range v {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var names []string
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		g, gok := v[k]
		w, wok := want[k]
		if gok != wok || g != w {
			s += fmt.Sprintf("  %s: got %v (present %v), want %v (present %v)\n", k, g, gok, w, wok)
		}
	}
	return s
}

// writeReference stores one run's cells under the workload and seed in
// the reference file at path, keeping every other entry.
func writeReference(path string, w workloadDef, seed uint64, cells map[string]values) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ref, err := parseReference(b)
	if err != nil {
		return err
	}
	if ref[w.name] == nil {
		ref[w.name] = map[string]map[string]values{}
	}
	ref[w.name][seedKey(w, seed)] = cells
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
