//go:build race

package mvts

func init() { raceEnabled = true }
