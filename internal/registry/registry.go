// Package registry provides the small generic name->value registry the
// simulator's extension points share: powercap policies, workload
// kinds, federation budget divisions, figure builders and output sinks
// all self-register into one of these, so command-line parsing, flag
// help text and error messages enumerate what is actually registered
// instead of repeating hardcoded name lists that drift from the code.
//
// Lookups are case-insensitive; every entry has one canonical name
// (the spelling String() renders and Names reports, in registration
// order) plus any number of aliases. Registration normally happens in
// package init of the package owning the value type, which keeps the
// registry a leaf dependency: core, trace and replay each own their
// registry, and internal/sim re-exports them as the facade surface.
package registry

import (
	"fmt"
	"strings"
	"sync"
)

// Registry maps names (case-insensitively) to values of one extension
// point. The zero value is not usable; construct with New.
type Registry[T any] struct {
	kind string // what the entries are, for error messages ("policy", ...)

	mu      sync.RWMutex
	order   []string // canonical names in registration order
	entries map[string]entry[T]
}

type entry[T any] struct {
	canonical string
	value     T
}

// New returns an empty registry whose error messages call the entries
// kind (e.g. "policy", "workload kind").
func New[T any](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, entries: map[string]entry[T]{}}
}

// Register adds a value under its canonical name plus any aliases.
// Registering a name (or alias) twice panics: two packages claiming the
// same name is a programming error worth failing loudly at init time.
func (r *Registry[T]) Register(name string, value T, aliases ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := entry[T]{canonical: name, value: value}
	for _, n := range append([]string{name}, aliases...) {
		key := strings.ToLower(strings.TrimSpace(n))
		if key == "" {
			panic(fmt.Sprintf("registry: empty %s name", r.kind))
		}
		if prev, dup := r.entries[key]; dup {
			panic(fmt.Sprintf("registry: %s %q already registered (as %q)", r.kind, n, prev.canonical))
		}
		r.entries[key] = e
	}
	r.order = append(r.order, name)
}

// find resolves a name or alias to its entry under the read lock — the
// one place key normalization and the unknown-name error live, so
// Lookup and Canonical can never disagree.
func (r *Registry[T]) find(name string) (entry[T], error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return entry[T]{}, fmt.Errorf("unknown %s %q (registered: %s)", r.kind, name, strings.Join(r.order, "|"))
	}
	return e, nil
}

// Lookup resolves a name or alias. The error of an unknown name
// enumerates the registered canonical names.
func (r *Registry[T]) Lookup(name string) (T, error) {
	e, err := r.find(name)
	if err != nil {
		var zero T
		return zero, err
	}
	return e.value, nil
}

// Canonical resolves a name or alias to its canonical spelling — the
// normalization step spec hashing relies on, so "shut" and "SHUT"
// content-address identically. The error of an unknown name matches
// Lookup's.
func (r *Registry[T]) Canonical(name string) (string, error) {
	e, err := r.find(name)
	if err != nil {
		return "", err
	}
	return e.canonical, nil
}

// Names returns the canonical names in registration order.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Join renders the canonical names separated by sep — the building
// block of registry-derived flag descriptions ("medianjob|smalljob|...").
func (r *Registry[T]) Join(sep string) string {
	return strings.Join(r.Names(), sep)
}
