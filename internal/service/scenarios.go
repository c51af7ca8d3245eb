package service

// Named scenario storage: PUT /scenarios/{name} stores a declarative
// scenario document (internal/scenario) server-side, and a later job
// submission can run it by reference ({"scenario_ref": "name"}).
// Documents are compiled at storage time, so a bad scenario is
// rejected with its field-precise errors at PUT, never at run time.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/quartz-dcn/quartz/internal/scenario"
)

// Scenario-related submission and storage errors. The HTTP layer maps
// ErrBadScenario → 400, ErrUnknownScenario → 404, ErrStoreFull → 507.
var (
	ErrBadScenario     = errors.New("bad scenario")
	ErrUnknownScenario = errors.New("unknown scenario")
	ErrStoreFull       = errors.New("scenario store full")
)

// StoredScenario is one named document in the store.
type StoredScenario struct {
	// Name is the storage key (the URL path element).
	Name string
	// Raw is the document as uploaded.
	Raw []byte
	// Compiled is the validated, compiled form.
	Compiled *scenario.Compiled
}

// scenarioStore is the bounded named-scenario table.
type scenarioStore struct {
	mu  sync.Mutex
	cap int
	m   map[string]*StoredScenario
}

func newScenarioStore(capacity int) *scenarioStore {
	return &scenarioStore{cap: capacity, m: make(map[string]*StoredScenario)}
}

// compileScenario decodes and compiles raw, wrapping document problems
// in ErrBadScenario. name flavors error messages ("request" for inline
// submissions).
func compileScenario(raw []byte, name string) (*scenario.Compiled, error) {
	f, err := scenario.Decode(raw, name)
	if err != nil {
		return nil, fmt.Errorf("%w:\n%v", ErrBadScenario, err)
	}
	c, err := scenario.Compile(f)
	if err != nil {
		return nil, fmt.Errorf("%w:\n%v", ErrBadScenario, err)
	}
	return c, nil
}

// PutScenario validates, compiles, and stores a named scenario,
// overwriting any previous document under that name. The document's
// own "name" field must match.
func (s *Service) PutScenario(name string, raw []byte) (*StoredScenario, error) {
	c, err := compileScenario(raw, name)
	if err != nil {
		return nil, err
	}
	if c.Doc.Name != name {
		return nil, fmt.Errorf("%w: document is named %q but was PUT as %q; make them match",
			ErrBadScenario, c.Doc.Name, name)
	}
	st := &StoredScenario{Name: name, Raw: raw, Compiled: c}
	s.scenarios.mu.Lock()
	defer s.scenarios.mu.Unlock()
	if _, exists := s.scenarios.m[name]; !exists && len(s.scenarios.m) >= s.scenarios.cap {
		return nil, fmt.Errorf("%w (capacity %d)", ErrStoreFull, s.scenarios.cap)
	}
	s.scenarios.m[name] = st
	return st, nil
}

// GetScenario returns a stored scenario by name.
func (s *Service) GetScenario(name string) (*StoredScenario, error) {
	s.scenarios.mu.Lock()
	defer s.scenarios.mu.Unlock()
	st, ok := s.scenarios.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScenario, name)
	}
	return st, nil
}

// DeleteScenario removes a stored scenario by name.
func (s *Service) DeleteScenario(name string) error {
	s.scenarios.mu.Lock()
	defer s.scenarios.mu.Unlock()
	if _, ok := s.scenarios.m[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownScenario, name)
	}
	delete(s.scenarios.m, name)
	return nil
}

// Scenarios lists the stored scenarios sorted by name.
func (s *Service) Scenarios() []*StoredScenario {
	s.scenarios.mu.Lock()
	defer s.scenarios.mu.Unlock()
	out := make([]*StoredScenario, 0, len(s.scenarios.m))
	for _, st := range s.scenarios.m {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
