package core

import (
	"bytes"
	"strings"
	"testing"

	"repliflow/internal/platform"
	"repliflow/internal/workflow"
)

// TestKindRegistryNames: every registered kind resolves by its wire name
// and round-trips through specFor.
func TestKindRegistryNames(t *testing.T) {
	specs := KindSpecs()
	if len(specs) < 6 {
		t.Fatalf("registry has %d kinds, want at least the 3 legacy + sp + 2 comm kinds", len(specs))
	}
	for _, spec := range specs {
		if spec.Name != spec.Kind.String() {
			t.Errorf("kind %v registered under name %q", spec.Kind, spec.Name)
		}
		byName, err := KindByName(spec.Name)
		if err != nil || byName.Kind != spec.Kind {
			t.Errorf("KindByName(%q) = %v, %v", spec.Name, byName, err)
		}
		if byKind := specFor(spec.Kind); byKind != byName {
			t.Errorf("specFor(%v) = %p; want %p", spec.Kind, byKind, byName)
		}
	}
}

// TestUnknownKindDispatchSites walks every dispatch site that used to
// carry a silent `default:` branch on the closed Kind enum: each one now
// fails with the structured ErrKindUnsupportedKind (or rejects the
// instance outright) instead of misclassifying it.
func TestUnknownKindDispatchSites(t *testing.T) {
	const bogus = workflow.Kind(97)

	// Registry resolution by kind and by name.
	if s := specFor(bogus); s != nil {
		t.Errorf("specFor(%v) = %v, want nil", bogus, s)
	}
	if _, err := KindByName("gantt"); ErrKindOf(err) != ErrKindUnsupportedKind {
		t.Errorf("KindByName: err = %v (kind %v), want unsupported-kind", err, ErrKindOf(err))
	}

	// An instance no registered kind claims: validation rejects it with a
	// message naming every registered kind, and Solve refuses it.
	unclaimed := Problem{Platform: platform.Homogeneous(2, 1), Objective: MinPeriod}
	err := unclaimed.Validate()
	if ErrKindOf(err) != ErrKindInvalidInstance {
		t.Fatalf("Validate: err = %v (kind %v), want invalid-instance", err, ErrKindOf(err))
	}
	for _, spec := range KindSpecs() {
		if !strings.Contains(err.Error(), spec.Name) {
			t.Errorf("validation message %q does not name kind %q", err, spec.Name)
		}
	}
	if _, err := Solve(unclaimed, Options{}); err == nil {
		t.Error("Solve accepted an instance no kind claims")
	}

	// Cell-key derivation and classification degrade to explicit
	// sentinels, never to a legacy kind's cell.
	key := CellKeyOf(unclaimed)
	if specFor(key.Kind) != nil {
		t.Errorf("CellKeyOf mapped an unclaimed instance onto registered kind %v", key.Kind)
	}
	if cl := ClassifyCell(key); cl != (Classification{}) {
		t.Errorf("ClassifyCell(%v) = %+v, want the zero classification", key, cl)
	}
	if e, ok := LookupSolver(key); ok || e.Anytime != nil {
		t.Errorf("LookupSolver(%v) found a solver for an unregistered cell", key)
	}

	// The fingerprint hook emits the reserved '?' tag, so unclaimed
	// instances can never collide with a real kind's cache entries.
	if fp := AppendGraphFingerprint(unclaimed, nil); !bytes.Equal(fp, []byte{'?'}) {
		t.Errorf("AppendGraphFingerprint = %q, want the reserved '?' tag", fp)
	}

	// No enumerated cell carries an unregistered kind.
	for _, k := range AllCellKeys() {
		if specFor(k.Kind) == nil {
			t.Errorf("AllCellKeys emitted unregistered kind %v", k.Kind)
		}
	}
}
