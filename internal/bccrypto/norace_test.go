//go:build !race

package bccrypto

const raceEnabled = false
