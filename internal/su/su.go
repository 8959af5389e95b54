// Package su implements XSEDE-style standardized service units
// (XD SUs). Disparate HPC systems cannot be compared by raw CPU hours:
// per the paper (§II-C6), XSEDE benchmarks each system with
// High-Performance LINPACK and derives a conversion factor so that
// "resources consumed on different systems can be compared to one
// another". One XD SU is defined as one CPU-hour on a Phase-1 DTF
// cluster, and one Phase-1 DTF SU equals 21.576 NUs.
package su

import (
	"fmt"
	"sync"
)

// Converter maps resources to conversion factors. The zero value is
// unusable; use NewConverter.
type Converter struct {
	mu      sync.RWMutex
	factors map[string]float64
}

// NewConverter returns an empty converter.
func NewConverter() *Converter {
	return &Converter{factors: make(map[string]float64)}
}

// Register sets the conversion factor for a resource. Factors must be
// positive: a resource that has not been benchmarked cannot be fairly
// compared, and registering zero would silently zero its usage.
func (c *Converter) Register(resource string, perCPUH float64) error {
	if resource == "" {
		return fmt.Errorf("su: resource name must not be empty")
	}
	if perCPUH <= 0 {
		return fmt.Errorf("su: conversion factor for %q must be positive, got %g", resource, perCPUH)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.factors[resource] = perCPUH
	return nil
}

// Factor returns the factor for a resource and whether it is known.
func (c *Converter) Factor(resource string) (float64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.factors[resource]
	return f, ok
}

// ToXDSU converts local CPU hours on the resource to XD SUs. Unknown
// resources return an error rather than a silent identity conversion:
// the paper stresses that only benchmarked, standardized metrics permit
// valid cross-resource comparison.
func (c *Converter) ToXDSU(resource string, cpuHours float64) (float64, error) {
	f, ok := c.Factor(resource)
	if !ok {
		return 0, fmt.Errorf("su: no conversion factor registered for resource %q", resource)
	}
	return cpuHours * f, nil
}
