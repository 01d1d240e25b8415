//go:build !race

package incremental_test

const raceEnabled = false
