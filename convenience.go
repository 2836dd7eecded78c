package spartan

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/table"
)

// CompressBytes is Compress into a fresh byte slice.
func CompressBytes(t *Table, opts Options) ([]byte, *Stats, error) {
	var buf bytes.Buffer
	stats, err := Compress(&buf, t, opts)
	if err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), stats, nil
}

// DecompressBytes is Decompress from a byte slice.
func DecompressBytes(data []byte) (*Table, error) {
	return Decompress(bytes.NewReader(data))
}

// Verify checks that `restored` satisfies the tolerance guarantees with
// respect to `original`: every numeric cell within its absolute bound,
// every categorical column's mismatch rate within its probability bound.
// A nil tolerance vector demands exact equality (lossless).
func Verify(original, restored *Table, tol Tolerances) error {
	resolved, err := tol.Resolve(original)
	if err != nil {
		return err
	}
	diffs, err := table.MaxAbsDiff(original, restored)
	if err != nil {
		return err
	}
	for i, d := range diffs {
		attr := original.Attr(i)
		bound := resolved[i].Value
		if attr.Kind == Numeric {
			// Guard against float comparison noise at the exact boundary.
			if d > bound*(1+1e-12)+math.SmallestNonzeroFloat64 {
				return fmt.Errorf("spartan: attribute %q: max error %g exceeds tolerance %g",
					attr.Name, d, bound)
			}
			continue
		}
		if len(resolved[i].PerClass) > 0 {
			if err := verifyPerClass(original, restored, i, resolved[i]); err != nil {
				return err
			}
			continue
		}
		if d > bound {
			return fmt.Errorf("spartan: attribute %q: mismatch rate %g exceeds tolerance %g",
				attr.Name, d, bound)
		}
	}
	return nil
}

// verifyPerClass checks per-class categorical bounds: for each class c,
// the fraction of rows whose original value is c that decompress to a
// different value must not exceed that class's tolerance.
func verifyPerClass(original, restored *Table, col int, tol Tolerance) error {
	oc, rc := original.Col(col), restored.Col(col)
	counts := map[string]int{}
	wrong := map[string]int{}
	for r := 0; r < original.NumRows(); r++ {
		class := oc.Dict[oc.Codes[r]]
		counts[class]++
		if rc.Dict[rc.Codes[r]] != class {
			wrong[class]++
		}
	}
	for class, n := range counts {
		bound := tol.Value
		if v, ok := tol.PerClass[class]; ok {
			bound = v
		}
		if rate := float64(wrong[class]) / float64(n); rate > bound {
			return fmt.Errorf("spartan: attribute %q class %q: mismatch rate %g exceeds tolerance %g",
				original.Attr(col).Name, class, rate, bound)
		}
	}
	return nil
}
