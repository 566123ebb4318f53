//go:build !race

package omniwindow

const raceEnabled = false
