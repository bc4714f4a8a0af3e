package tsfresh

// Extract computes the feature vector of one series into a new slice.
func (e Extractor) Extract(s []float64) []float64 {
	return e.Append(make([]float64, 0, len(featureNames)), s)
}
