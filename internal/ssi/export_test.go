package ssi

import "sort"

// Edges returns the rw adjacency as sorted (from, to) pairs.
func (a *Analysis) Edges() [][2]int {
	var out [][2]int
	for from, tos := range a.out {
		for _, to := range tos {
			out = append(out, [2]int{from, to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
