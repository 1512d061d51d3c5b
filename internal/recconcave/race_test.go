//go:build race

package recconcave

func init() { raceEnabled = true }
