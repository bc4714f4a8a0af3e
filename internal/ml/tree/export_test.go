package tree

// LeafCount returns the number of leaves.
func (t *Classifier) LeafCount() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Feature < 0 {
			n++
		}
	}
	return n
}

// LeafCount returns the number of leaves.
func (t *Regressor) LeafCount() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Feature < 0 {
			n++
		}
	}
	return n
}
