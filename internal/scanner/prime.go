// Package scanner implements the ZMap-equivalent scan engine: a
// full-cycle random permutation of the target space built on the
// multiplicative group of integers modulo a prime (as ZMap does),
// sharding, virtual-time rate limiting, and the engine loop that drives
// probe modules across millions of targets (§3.4 of the paper).
package scanner

import "math/bits"

// mulMod returns (a*b) mod m without overflow for 64-bit operands.
// When all three fit in 32 bits — every cycle step of a target space
// below 2^32 addresses — the product fits in 64 bits and one native
// remainder replaces the 128-bit division.
func mulMod(a, b, m uint64) uint64 {
	if (a|b|m)>>32 == 0 {
		return a * b % m
	}
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// powMod returns a^e mod m.
func powMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = mulMod(result, a, m)
		}
		a = mulMod(a, a, m)
		e >>= 1
	}
	return result
}

// IsPrime reports whether n is prime, using the deterministic
// Miller-Rabin witness set for 64-bit integers.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 = d * 2^r.
	d := n - 1
	r := 0
	for d%2 == 0 {
		d /= 2
		r++
	}
	// These witnesses are deterministic for all n < 2^64.
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := powMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = mulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// NextPrime returns the smallest prime >= n.
func NextPrime(n uint64) uint64 {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !IsPrime(n) {
		n += 2
	}
	return n
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Factorize returns the distinct prime factors of n in ascending order.
func Factorize(n uint64) []uint64 {
	var factors []uint64
	appendFactor := func(p uint64) {
		for _, f := range factors {
			if f == p {
				return
			}
		}
		factors = append(factors, p)
	}
	var rec func(n uint64)
	rec = func(n uint64) {
		if n == 1 {
			return
		}
		if IsPrime(n) {
			appendFactor(n)
			return
		}
		d := rho(n)
		rec(d)
		rec(n / d)
	}
	// Strip small primes first; rho struggles with them.
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		for n%p == 0 {
			appendFactor(p)
			n /= p
		}
	}
	rec(n)
	// Insertion sort (the list is tiny).
	for i := 1; i < len(factors); i++ {
		for j := i; j > 0 && factors[j-1] > factors[j]; j-- {
			factors[j-1], factors[j] = factors[j], factors[j-1]
		}
	}
	return factors
}

// rho returns a non-trivial factor of composite odd n.
func rho(n uint64) uint64 {
	for c := uint64(1); ; c++ {
		f := func(x uint64) uint64 {
			return (mulMod(x, x, n) + c) % n
		}
		x, y, d := uint64(2), uint64(2), uint64(1)
		for d == 1 {
			x = f(x)
			y = f(f(y))
			diff := x - y
			if y > x {
				diff = y - x
			}
			d = gcd(diff, n)
		}
		if d != n {
			return d
		}
	}
}

// PrimitiveRoot finds a generator of the multiplicative group mod prime
// p, i.e. an element of order p-1. candidates are tried starting from
// seed so different scans use different generators (like ZMap's random
// generator selection).
func PrimitiveRoot(p uint64, seed uint64) uint64 {
	if p == 2 {
		return 1
	}
	if p == 3 {
		return 2
	}
	factors := Factorize(p - 1)
	start := seed%(p-3) + 2 // in [2, p-2]
	for i := uint64(0); i < p; i++ {
		g := start + i
		if g >= p-1 {
			g = g%(p-3) + 2
		}
		if isPrimitiveRoot(g, p, factors) {
			return g
		}
	}
	panic("scanner: no primitive root found (p not prime?)")
}

func isPrimitiveRoot(g, p uint64, factors []uint64) bool {
	for _, q := range factors {
		if powMod(g, (p-1)/q, p) == 1 {
			return false
		}
	}
	return true
}
