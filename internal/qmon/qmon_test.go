package qmon

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

func TestForAccountBreakdown(t *testing.T) {
	a := metrics.NewAccount(0)
	a.Add(metrics.CatSerial, 300)
	a.Add(metrics.CatBarrierWait, 100) // user-level spin is user time
	a.Add(metrics.CatOSSystem, 200)
	a.Add(metrics.CatOSInterrupt, 100)
	a.Add(metrics.CatOSSpin, 50)

	b := ForAccount(a, 1000)
	if math.Abs(b.User-0.4) > 1e-9 {
		t.Fatalf("user = %v, want 0.4", b.User)
	}
	if math.Abs(b.System-0.2) > 1e-9 || math.Abs(b.Interrupt-0.1) > 1e-9 || math.Abs(b.Spin-0.05) > 1e-9 {
		t.Fatalf("sys/int/spin = %v/%v/%v", b.System, b.Interrupt, b.Spin)
	}
	if math.Abs(b.Idle-0.25) > 1e-9 {
		t.Fatalf("idle = %v, want 0.25", b.Idle)
	}
	if math.Abs(b.OSShare()-0.35) > 1e-9 {
		t.Fatalf("OS share = %v, want 0.35", b.OSShare())
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	a := metrics.NewAccount(0)
	a.Add(metrics.CatLoopIter, 123)
	a.Add(metrics.CatGMStall, 456)
	a.Add(metrics.CatOSSystem, 78)
	b := ForAccount(a, 1000)
	sum := b.User + b.System + b.Interrupt + b.Spin + b.Idle
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestZeroCT(t *testing.T) {
	a := metrics.NewAccount(0)
	b := ForAccount(a, 0)
	if b.User != 0 || b.OSShare() != 0 {
		t.Fatal("nonzero breakdown at zero CT")
	}
}
