package hgraph

var passNames = [numPasses]string{"fold", "dce", "unreachable", "coalesce", "licm", "merge-returns"}

// OptimizeCounting is Optimize, also returning how many times each pass
// ran, keyed by pass name.
func OptimizeCounting(g *Graph) map[string]int {
	var ran [numPasses]int
	optimize(g, &ran)
	runs := make(map[string]int, numPasses)
	for p, n := range ran {
		runs[passNames[p]] = n
	}
	return runs
}
