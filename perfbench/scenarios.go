package main

import (
	"fmt"
	"strings"

	"fuzzyprophet/internal/benchfix"
	"fuzzyprophet/internal/sqlparser"
	"fuzzyprophet/internal/value"
)

// The workloads run the bundled example scenarios as the repository ships
// them (sqlparser.ExampleScenarios), so the benchmark measures the same
// scripts as the engine tests and fpbench. Only capacityplanning's purchase
// grid is rewritten, to the grid each workload sweeps.

// exampleSQL returns a bundled example scenario's script.
func exampleSQL(name string) (string, error) {
	src, ok := sqlparser.ExampleScenarios()[name]
	if !ok {
		return "", fmt.Errorf("no bundled example scenario %q", name)
	}
	return src, nil
}

// capacityGrid is the capacityplanning example with both purchase sliders
// on RANGE 0 TO top STEP BY step instead of the example's 0 TO 48 STEP BY 8.
func capacityGrid(top, step int) (string, error) {
	src, err := exampleSQL("capacityplanning")
	if err != nil {
		return "", err
	}
	const grid = "RANGE 0 TO 48 STEP BY 8"
	if n := strings.Count(src, grid); n != 2 {
		return "", fmt.Errorf("capacityplanning example has %d purchase grids %q, want 2", n, grid)
	}
	return strings.ReplaceAll(src, grid, fmt.Sprintf("RANGE 0 TO %d STEP BY %d", top, step)), nil
}

// regionsTable returns serverfleet's regions table (benchfix.RegionsTable)
// as plain Go values: the JSON "tables" entry for the server and the rows
// for Scenario.AddTable.
func regionsTable() (name string, cols []string, rows [][]any, err error) {
	t, err := benchfix.RegionsTable()
	if err != nil {
		return "", nil, nil, err
	}
	for _, r := range t.Rows {
		row := make([]any, len(r))
		for i, v := range r {
			if row[i], err = plainValue(v); err != nil {
				return "", nil, nil, err
			}
		}
		rows = append(rows, row)
	}
	return t.Name, t.Cols, rows, nil
}

// plainValue converts a table cell to the Go value JSON and AddTable take.
func plainValue(v value.Value) (any, error) {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindBool:
		return v.AsBool()
	case value.KindString:
		return v.AsString(), nil
	}
	return nil, fmt.Errorf("table cell %v: unsupported kind %v", v, v.Kind())
}
