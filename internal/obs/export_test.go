package obs

import "sort"

// FamilyInfo describes one registered metric family without its series
// data — the registry's self-documentation surface (docs/OBSERVABILITY.md
// is tested against it).
type FamilyInfo struct {
	// Name is the family name.
	Name string
	// Kind is the instrument kind.
	Kind Kind
	// Unit is the documented value unit ("" when dimensionless).
	Unit string
	// Help is the one-line description.
	Help string
	// LabelKeys are the family's label dimensions (nil when unlabeled).
	LabelKeys []string
}

// Families lists every registered family, sorted by name.
func (r *Registry) Families() []FamilyInfo {
	r.mu.RLock()
	out := make([]FamilyInfo, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, FamilyInfo{
			Name:      f.opts.Name,
			Kind:      f.kind,
			Unit:      f.opts.Unit,
			Help:      f.opts.Help,
			LabelKeys: append([]string{}, f.keys...),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
