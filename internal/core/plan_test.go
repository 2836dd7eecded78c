package core_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
)

// TestPlanApply: NewPlan then Apply on the planned table writes exactly
// what Compress writes, and Apply refuses rows whose schema or
// dictionaries differ from the planned table's.
func TestPlanApply(t *testing.T) {
	ctx := context.Background()
	tb := datagen.CDR(1200, 4)
	opts := core.Options{Tolerances: table.UniformTolerances(tb, 0.02, 0)}
	var mono, staged bytes.Buffer
	if _, err := core.Compress(&mono, tb, opts); err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewPlan(ctx, tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Apply(ctx, &staged, tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mono.Bytes(), staged.Bytes()) {
		t.Error("NewPlan+Apply bytes differ from Compress")
	}

	part, err := tb.SelectRows([]int{3, 1, 4, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Apply(ctx, io.Discard, part); err != nil {
		t.Errorf("Apply on a row subset: %v", err)
	}
	for name, rows := range map[string]*table.Table{
		"other schema":       datagen.Census(100, 4),
		"other dictionaries": datagen.CDR(100, 5),
		"nil table":          nil,
	} {
		if _, err := plan.Apply(ctx, io.Discard, rows); err == nil {
			t.Errorf("Apply accepted rows with %s", name)
		}
	}
}
