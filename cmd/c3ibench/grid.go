package main

import (
	"fmt"
	"strconv"
	"strings"
)

// parseGridFlag splits the -grid value: "workload" sweeps the full declared
// grid; "workload=axis:v1,v2[;axis:v1,...]" restricts named axes to subsets
// of their declared values.
func parseGridFlag(s string) (name string, restrict map[string][]float64, err error) {
	name, spec, has := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf(`-grid %q: need "workload" or "workload=axis:v1,v2[;axis:...]"`, s)
	}
	if !has {
		return name, nil, nil
	}
	restrict = map[string][]float64{}
	for _, part := range strings.Split(spec, ";") {
		axis, list, ok := strings.Cut(part, ":")
		axis = strings.TrimSpace(axis)
		if !ok || axis == "" {
			return "", nil, fmt.Errorf(`-grid %q: restriction %q: need "axis:v1,v2"`, s, part)
		}
		if _, dup := restrict[axis]; dup {
			return "", nil, fmt.Errorf("-grid %q: axis %q restricted twice", s, axis)
		}
		var vals []float64
		for _, f := range strings.Split(list, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return "", nil, fmt.Errorf("-grid %q: axis %q: value %q is not a number", s, axis, f)
			}
			vals = append(vals, v)
		}
		restrict[axis] = vals
	}
	return name, restrict, nil
}
