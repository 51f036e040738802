//go:build !linux

package main

// allowedCPUs reports one unnamed CPU where threads cannot be bound.
func allowedCPUs() []int { return []int{-1} }

// onCPU runs fn; this platform does not bind threads to CPUs.
func onCPU(_ int, fn func()) { fn() }
