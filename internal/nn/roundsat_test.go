package nn

import (
	"math"
	"math/rand"
	"testing"
)

// roundSatI8Branchy is the sign-branching form roundSatI8 replaced,
// kept as its oracle.
func roundSatI8Branchy(v float64) int8 {
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	i := int32(v)
	if i > 127 {
		return 127
	}
	if i < -128 {
		return -128
	}
	return int8(i)
}

// roundSatI16f32Branchy is the sign-branching form roundSatI16f32
// replaced, kept as its oracle.
func roundSatI16f32Branchy(v float32) int16 {
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	i := int32(v)
	if i > 32767 {
		return 32767
	}
	if i < -32768 {
		return -32768
	}
	return int16(i)
}

// TestRoundSatMatchesBranchy pins the copysign rounding to the branchy
// form it replaced on the inputs where the two could part: signed
// zeros, every half-integer tie up to past the int16 range, the largest
// float below 0.5, the extremes (±MaxFloat, ±Inf, NaN of either sign),
// subnormals, and a seeded sweep across and past the saturation range.
func TestRoundSatMatchesBranchy(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1),
		math.Nextafter(0.5, 0), -math.Nextafter(0.5, 0),
		float64(math.Nextafter32(0.5, 0)), -float64(math.Nextafter32(0.5, 0)),
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32, -math.MaxFloat32,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(math.NaN(), -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		float64(math.Float32frombits(0x007fffff)), -float64(math.Float32frombits(0x007fffff)),
	}
	for n := 0; n <= 32768; n++ {
		vals = append(vals, float64(n)+0.5, -(float64(n) + 0.5))
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 1_000_000; i++ {
		vals = append(vals, (2*rng.Float64()-1)*40000)
	}
	for _, v := range vals {
		if got, want := roundSatI8(v), roundSatI8Branchy(v); got != want {
			t.Fatalf("roundSatI8(%v [%#x]) = %d, branchy form gives %d", v, math.Float64bits(v), got, want)
		}
		v32 := float32(v)
		if got, want := roundSatI16f32(v32), roundSatI16f32Branchy(v32); got != want {
			t.Fatalf("roundSatI16f32(%v [%#x]) = %d, branchy form gives %d", v32, math.Float32bits(v32), got, want)
		}
	}
}
