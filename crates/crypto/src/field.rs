//! Arithmetic in the Mersenne prime field `GF(p)`, `p = 2¹²⁷ − 1`, and in
//! the exponent ring `Z_{p−1}`.
//!
//! `p = 2¹²⁷ − 1` is the Mersenne prime M127, which makes modular reduction
//! a fold. Both rings multiply through one 254-bit limb product split at
//! bit 127, `a·b = t·2¹²⁷ + l`, and reduce it with one fold: `2¹²⁷ ≡ 1
//! (mod p)` gives `t + l`, `2¹²⁷ ≡ 2 (mod p − 1)` gives `2t + l`.
//! Elements are `u128` values in `[0, p)`.
//!
//! Powers of a base used many times come from a `Comb`: the generator
//! `G` has one built at compile time (`pow_g`); any other base takes a
//! 4-bit windowed [`pow`].

/// The field modulus `p = 2¹²⁷ − 1` (Mersenne prime M127).
pub const P: u128 = (1u128 << 127) - 1;

/// Order of the full multiplicative group, `p − 1`.
pub const GROUP_ORDER: u128 = P - 1;

/// Generator used by the signature scheme. Schnorr verification holds for
/// any group element (exponent arithmetic is done mod `p − 1`, a multiple
/// of the element's order), so we simply pick a small non-trivial element.
pub const G: u128 = 7;

const MASK: u128 = P; // low 127 bits

/// Fold a value into `[0, p)` using `2¹²⁷ ≡ 1 (mod p)`.
#[inline]
const fn fold(mut x: u128) -> u128 {
    // At most two folds are needed for inputs below 2^128.
    x = (x >> 127) + (x & MASK);
    x = (x >> 127) + (x & MASK);
    if x >= P {
        x - P
    } else {
        x
    }
}

/// Addition mod `p`.
#[inline]
pub fn add(a: u128, b: u128) -> u128 {
    debug_assert!(a < P && b < P);
    // a + b < 2^128: a single fold suffices.
    fold(a.wrapping_add(b))
}

/// Subtraction mod `p`.
#[inline]
pub fn sub(a: u128, b: u128) -> u128 {
    debug_assert!(a < P && b < P);
    if a >= b {
        a - b
    } else {
        a + P - b
    }
}

/// The product of `a, b < 2¹²⁷` split at bit 127: `(t, l)` with
/// `a·b = t·2¹²⁷ + l` and both halves below `2¹²⁷`.
#[inline]
const fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    let (a1, a0) = (a >> 64, a as u64 as u128);
    let (b1, b0) = (b >> 64, b as u64 as u128);
    // a1, b1 < 2^63, so each cross product is < 2^127 and their sum fits.
    let cross = a0 * b1 + a1 * b0;
    let (lo, carry) = (a0 * b0).overflowing_add(cross << 64);
    // a·b < 2^254, so the high 128 bits are < 2^126.
    let hi = a1 * b1 + (cross >> 64) + carry as u128;
    ((hi << 1) | (lo >> 127), lo & MASK)
}

/// Multiplication mod `p`: one limb product and one Mersenne fold,
/// `t·2¹²⁷ + l ≡ t + l`. The fold leaves a value in `[0, p]` congruent to
/// `a·b`, and it cannot be `p`: that needs `p | a·b` with `a·b ≠ 0`,
/// impossible for `a, b < p` with `p` prime.
#[inline]
pub const fn mul(a: u128, b: u128) -> u128 {
    debug_assert!(a < P && b < P);
    let (t, l) = mul_wide(a, b);
    let x = t + l; // < 2^128
    (x >> 127) + (x & MASK)
}

/// Exponentiation `base^exp mod p` by 4-bit fixed-window
/// exponentiation: 4 squarings and one multiply per nibble.
pub fn pow(base: u128, exp: u128) -> u128 {
    windowed(base, exp, |_| 1)
}

/// `G^s · base^exp mod p`, the product a Schnorr verification needs:
/// [`pow`] of `base`, with one lookup in the generator's comb per nibble
/// multiplied into a second accumulator. Those multiplies do not depend
/// on the squaring chain, so they overlap with it.
pub(crate) fn pow_g_mul_pow(s: u128, base: u128, exp: u128) -> u128 {
    windowed(base, exp, |i| G_COMB.entry(i, s))
}

/// 4-bit fixed-window `base^exp · Π side(i)` over the 32 nibbles `i`.
#[inline]
fn windowed(base: u128, exp: u128, side: impl Fn(usize) -> u128) -> u128 {
    debug_assert!(base < P);
    // base^j for j in 0..16, each at most 6 multiplies from `base`.
    let mut powers = [1u128; 16];
    powers[1] = base;
    for j in 2..16 {
        powers[j] = mul(powers[j / 2], powers[j - j / 2]);
    }
    let (mut acc, mut side_acc) = (1, 1);
    for i in (0..32).rev() {
        if i < 31 {
            for _ in 0..4 {
                acc = mul(acc, acc);
            }
        }
        acc = mul(acc, powers[nibble(exp, i)]);
        side_acc = mul(side_acc, side(i));
    }
    mul(acc, side_acc)
}

/// Nibble `i` (from the least significant) of `x`.
#[inline]
fn nibble(x: u128, i: usize) -> usize {
    ((x >> (4 * i)) & 15) as usize
}

/// A 4-bit fixed-base comb for one base `b`: row `i` holds `b^(j·16^i)`
/// for `j` in `0..16`, so `b^e` is the product of one entry per nibble of
/// `e` — 32 multiplies and no squarings. 32 rows × 16 entries × 16 bytes
/// = 8 KiB; building one takes 480 multiplies.
pub(crate) struct Comb {
    rows: [[u128; 16]; 32],
}

impl Comb {
    /// The comb table for `base`.
    pub(crate) const fn new(base: u128) -> Comb {
        debug_assert!(base < P);
        let mut rows = [[1u128; 16]; 32];
        let mut step = base; // b^(16^i)
        let mut i = 0;
        while i < 32 {
            // Entry j from entries j/2 and j − j/2: short dependency chains.
            rows[i][1] = step;
            let mut j = 2;
            while j < 16 {
                rows[i][j] = mul(rows[i][j / 2], rows[i][j - j / 2]);
                j += 1;
            }
            step = mul(rows[i][8], rows[i][8]);
            i += 1;
        }
        Comb { rows }
    }

    /// `base^exp mod p`, for any 128-bit `exp`. The rows are multiplied
    /// in four independent chains, so the multiplies overlap.
    pub(crate) fn pow(&self, exp: u128) -> u128 {
        let mut acc = [1u128; 4];
        for i in (0..32).step_by(4) {
            for (lane, a) in acc.iter_mut().enumerate() {
                *a = mul(*a, self.entry(i + lane, exp));
            }
        }
        mul(mul(acc[0], acc[1]), mul(acc[2], acc[3]))
    }

    /// Row `i`'s entry for `exp`: `base^(nibble_i(exp) · 16^i)`.
    #[inline]
    fn entry(&self, i: usize, exp: u128) -> u128 {
        self.rows[i][nibble(exp, i)]
    }
}

/// The comb for the generator, built at compile time.
static G_COMB: Comb = Comb::new(G);

/// `G^exp mod p` through the generator's comb.
pub(crate) fn pow_g(exp: u128) -> u128 {
    G_COMB.pow(exp)
}

/// Reduce any `u128` into `Z_{p−1}`: `2¹²⁸ − 1 < 3(p − 1)`, so at most
/// two subtractions.
#[inline]
const fn scalar_reduce(mut x: u128) -> u128 {
    if x >= GROUP_ORDER {
        x -= GROUP_ORDER;
    }
    if x >= GROUP_ORDER {
        x -= GROUP_ORDER;
    }
    x
}

/// Multiplication in the exponent ring `Z_{p−1}`:
/// `t·2¹²⁷ + l ≡ 2t + l (mod p − 1)`.
pub fn scalar_mul(a: u128, b: u128) -> u128 {
    let (t, l) = mul_wide(scalar_reduce(a), scalar_reduce(b));
    // t, l < 2^127 = (p − 1) + 2: one subtraction reduces each.
    let (t, l) = (scalar_reduce(t), scalar_reduce(l));
    addmod(addmod(t, t, GROUP_ORDER), l, GROUP_ORDER)
}

/// Addition in `Z_{p−1}`.
pub fn scalar_add(a: u128, b: u128) -> u128 {
    addmod(scalar_reduce(a), scalar_reduce(b), GROUP_ORDER)
}

/// Subtraction in `Z_{p−1}`.
pub fn scalar_sub(a: u128, b: u128) -> u128 {
    let (a, b) = (scalar_reduce(a), scalar_reduce(b));
    if a >= b {
        a - b
    } else {
        a + GROUP_ORDER - b
    }
}

#[inline]
fn addmod(a: u128, b: u128, m: u128) -> u128 {
    debug_assert!(a < m && b < m);
    // m < 2^127 so a + b < 2^128: no overflow.
    let s = a + b;
    if s >= m {
        s - m
    } else {
        s
    }
}

/// Interpret 16 big-endian bytes as a field element (reduced mod p).
pub fn from_bytes(bytes: &[u8; 16]) -> u128 {
    fold(u128::from_be_bytes(*bytes))
}

/// Serialize a field element as 16 big-endian bytes.
pub fn to_bytes(x: u128) -> [u8; 16] {
    debug_assert!(x < P || x < u128::MAX); // elements and scalars both fit
    x.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_des::{Rng64, SplitMix64};

    /// Reference `a·b mod m` by shift-and-add, for any `m < 2¹²⁷`.
    fn mulmod_ref(a: u128, b: u128, m: u128) -> u128 {
        let (mut a, mut b) = (a % m, b % m);
        let mut acc = 0;
        while b > 0 {
            if b & 1 == 1 {
                acc = addmod(acc, a, m);
            }
            a = addmod(a, a, m);
            b >>= 1;
        }
        acc
    }

    /// Reference `base^exp mod p` by binary square-and-multiply.
    fn pow_ref(mut base: u128, mut exp: u128) -> u128 {
        let mut acc = 1;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul(acc, base);
            }
            base = mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Edge values followed by SplitMix64-generated 128-bit values.
    fn inputs(seed: u64, n: usize) -> Vec<u128> {
        let mut rng = SplitMix64::new(seed);
        let mut xs = vec![0, 1, 2, P - 1, GROUP_ORDER - 1, GROUP_ORDER, P, u128::MAX];
        xs.extend((0..n).map(|_| (rng.next_u64() as u128) << 64 | rng.next_u64() as u128));
        xs
    }

    #[test]
    fn mul_and_scalar_mul_match_shift_and_add_on_generated_inputs() {
        let xs = inputs(1, 10_000);
        for (i, &x) in xs.iter().enumerate() {
            let y = xs[(i * 7 + 3) % xs.len()];
            let (a, b) = (x % P, y % P);
            assert_eq!(mul(a, b), mulmod_ref(a, b, P), "mul {a:#x} {b:#x}");
            assert_eq!(
                scalar_mul(x, y),
                mulmod_ref(x, y, GROUP_ORDER),
                "scalar_mul {x:#x} {y:#x}"
            );
        }
        for a in [0, 1, P - 1] {
            for b in [0, 1, P - 1] {
                assert_eq!(mul(a, b), mulmod_ref(a, b, P));
            }
        }
        for a in [0, 1, GROUP_ORDER - 1] {
            for b in [0, 1, GROUP_ORDER - 1] {
                assert_eq!(scalar_mul(a, b), mulmod_ref(a, b, GROUP_ORDER));
            }
        }
    }

    #[test]
    fn windowed_and_comb_pows_match_square_and_multiply_on_generated_inputs() {
        let exps = inputs(2, 10_000);
        let bases = inputs(3, 40);
        for (i, &e) in exps.iter().enumerate() {
            let base = bases[i % bases.len()] % P;
            let s = exps[(i * 7 + 3) % exps.len()];
            assert_eq!(pow(base, e), pow_ref(base, e), "pow {base:#x}^{e:#x}");
            assert_eq!(pow_g(e), pow_ref(G, e), "pow_g {e:#x}");
            assert_eq!(
                pow_g_mul_pow(s, base, e),
                mul(pow_ref(G, s), pow_ref(base, e)),
                "pow_g_mul_pow {s:#x} {base:#x}^{e:#x}"
            );
        }
        for &base in &bases {
            let comb = Comb::new(base % P);
            for &e in exps.iter().take(250) {
                assert_eq!(comb.pow(e), pow_ref(base % P, e), "comb {base:#x}^{e:#x}");
            }
        }
    }

    #[test]
    fn fold_reduces_correctly() {
        assert_eq!(fold(P), 0);
        assert_eq!(fold(P + 1), 1);
        assert_eq!(fold(0), 0);
        assert_eq!(fold(u128::MAX), u128::MAX - 2 * P); // 2^128−1 = 2p+1 → 1
        assert_eq!(fold(u128::MAX), 1);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = P - 5;
        let b = 123456789u128;
        let s = add(a, b);
        assert_eq!(sub(s, b), a);
        assert_eq!(sub(s, a), b);
        assert_eq!(add(P - 1, 1), 0);
    }

    #[test]
    fn mul_small_values() {
        assert_eq!(mul(3, 4), 12);
        assert_eq!(mul(0, 99), 0);
        assert_eq!(mul(1, P - 1), P - 1);
    }

    #[test]
    fn mul_wraparound_identities() {
        // (p−1)² ≡ 1 (mod p) since p−1 ≡ −1.
        assert_eq!(mul(P - 1, P - 1), 1);
        // (p−2)·2 = 2p−4 ≡ p−4.
        assert_eq!(mul(P - 2, 2), P - 4);
    }

    #[test]
    fn mul_matches_naive_for_64bit_inputs() {
        // For inputs < 2^63 the product fits u128 and we can check directly.
        let cases = [
            (0x1234_5678_9abc_def0u128, 0x0fed_cba9_8765_4321u128),
            ((1u128 << 62) + 12345, (1u128 << 62) + 67890),
            (999_999_999_999u128, 888_888_888_888u128),
        ];
        for (a, b) in cases {
            assert_eq!(mul(a, b), (a * b) % P, "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn mul_is_commutative_and_associative_spotcheck() {
        let xs = [
            P - 1,
            P / 2,
            0xdead_beef_dead_beef_dead_beef_dead_beefu128 % P,
            12345,
            (1u128 << 126) + 999,
        ];
        for &a in &xs {
            for &b in &xs {
                assert_eq!(mul(a, b), mul(b, a));
                for &c in &xs {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_law_spotcheck() {
        let a = P - 12345;
        let b = (1u128 << 100) + 77;
        let c = (1u128 << 120) + 3;
        assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    }

    #[test]
    fn pow_basics() {
        assert_eq!(pow(2, 10), 1024);
        assert_eq!(pow(5, 0), 1);
        assert_eq!(pow(0, 5), 0);
        assert_eq!(pow(1, u128::MAX >> 1), 1);
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p−1) ≡ 1 for a ≠ 0.
        for a in [2u128, 3, 7, 1234567, P - 2] {
            assert_eq!(pow(a, GROUP_ORDER), 1, "a={a}");
        }
    }

    #[test]
    fn pow_adds_exponents() {
        let a = 987654321u128;
        let x = 0xabcdefu128;
        let y = 0x123456u128;
        assert_eq!(mul(pow(a, x), pow(a, y)), pow(a, x + y));
    }

    #[test]
    fn scalar_ring_ops() {
        assert_eq!(scalar_add(GROUP_ORDER - 1, 2), 1);
        assert_eq!(scalar_sub(1, 2), GROUP_ORDER - 1);
        assert_eq!(scalar_mul(3, 5), 15);
        // (m−1)² mod m = 1
        assert_eq!(scalar_mul(GROUP_ORDER - 1, GROUP_ORDER - 1), 1);
    }

    #[test]
    fn schnorr_core_identity() {
        // g^s·y^e == g^k where s = k − e·x (mod p−1), y = g^x.
        let x = 0x1111_2222_3333_4444_5555u128;
        let k = 0x9999_8888_7777_6666u128;
        let e = 0xabcd_ef01_2345u128;
        let y = pow(G, x);
        let s = scalar_sub(k, scalar_mul(e, x));
        let lhs = mul(pow(G, s), pow(y, e));
        let rhs = pow(G, k);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn bytes_roundtrip() {
        let x = (1u128 << 126) + 424242;
        assert_eq!(from_bytes(&to_bytes(x)), x);
        // Values ≥ p wrap on decode.
        assert_eq!(from_bytes(&to_bytes(P)), 0);
    }
}
