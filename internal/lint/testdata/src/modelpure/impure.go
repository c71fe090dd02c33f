// Package modelpure holds golden cases for the modelpure analyzer; the test
// configures it with this package as a pure package and report.go as an
// allowed-time file.
package modelpure

import (
	"math/rand"
	"os"
	"time"
)

// Transition models a pure transition that reaches for the wall clock.
func Transition() int64 {
	t := time.Now() // want "time.Now in model code"
	return t.Unix()
}

// Configure reads the environment from model code.
func Configure() string {
	return os.Getenv("DVS_MODE") // want "os.Getenv in model code"
}

// Pick draws from the process-global RNG.
func Pick(n int) int {
	return rand.Intn(n) // want `global math/rand.Intn`
}

// Seeded uses the approved per-instance constructor chain: clean.
func Seeded(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// Scale uses a time constant, which is always fine.
func Scale(d time.Duration) time.Duration {
	return d * time.Second / time.Millisecond
}
