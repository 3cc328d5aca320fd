//! The monomorphized per-element lower-bound kernel.
//!
//! Refining one element's interval and its bound contribution is the
//! innermost step of every early-termination evaluation, so nothing that
//! stays fixed for a comparison is decided inside it. [`dispatch!`]
//! matches on the dataset's (`ElemType`, `Metric`) pair once and runs the
//! caller's body with one [`Elem`] × [`Bound`] instantiation; the element
//! step then reduces to a sortable transform, two masks, an integer or
//! bit-cast decode of the interval endpoints, and the metric's arithmetic.
//!
//! Each instantiation computes bit for bit what
//! [`ValueInterval::from_prefix`](crate::ValueInterval::from_prefix)
//! followed by
//! [`DistanceBounder::contribution`](crate::DistanceBounder::contribution)
//! computes; the engine's differential tests pin that contract.

use ansmet_vecdata::dtype::{bf16_bits_to_f32, f16_bits_to_f32};

/// One element datatype: its sortable transform and the decode of a
/// sortable pattern to an interval endpoint.
pub(crate) trait Elem {
    /// Storage width in bits.
    const BITS: u32;

    /// Sortable encoding of a raw storage pattern
    /// (as [`to_sortable`](crate::to_sortable)).
    fn sortable(raw: u32) -> u32;

    /// Value of the sortable pattern `s` as a lower endpoint: NaN
    /// patterns (beyond −∞ in sortable order) widen to −∞.
    fn lo(s: u32) -> f32;

    /// Value of the sortable pattern `s` as an upper endpoint: NaN
    /// patterns (beyond +∞ in sortable order) widen to +∞.
    fn hi(s: u32) -> f32;
}

/// One search metric's per-dimension lower bound.
pub(crate) trait Bound {
    /// Whether no contribution can be −∞, whatever the element type,
    /// interval and query: the precondition of the engine's lane-blocked
    /// loop, which keeps no −∞ bookkeeping.
    const NEVER_UNBOUNDED: bool;

    /// Lower bound of a dimension's contribution when its element lies
    /// in `[lo, hi]` and the query coordinate is `q`.
    fn contribution(lo: f32, hi: f32, q: f32) -> f64;
}

pub(crate) struct U8;
pub(crate) struct I8;
pub(crate) struct F32;
pub(crate) struct F16;
pub(crate) struct Bf16;
pub(crate) struct L2;
pub(crate) struct Ip;

impl Elem for U8 {
    const BITS: u32 = 8;
    #[inline(always)]
    fn sortable(raw: u32) -> u32 {
        raw & 0xff
    }
    #[inline(always)]
    fn lo(s: u32) -> f32 {
        s as f32
    }
    #[inline(always)]
    fn hi(s: u32) -> f32 {
        s as f32
    }
}

impl Elem for I8 {
    const BITS: u32 = 8;
    #[inline(always)]
    fn sortable(raw: u32) -> u32 {
        (raw ^ 0x80) & 0xff
    }
    #[inline(always)]
    fn lo(s: u32) -> f32 {
        (s as i32 - 128) as f32
    }
    #[inline(always)]
    fn hi(s: u32) -> f32 {
        (s as i32 - 128) as f32
    }
}

/// Raw pattern of a sortable float pattern whose sign bit sits at `sign`.
#[inline(always)]
fn float_raw(s: u32, sign: u32, all: u32) -> u32 {
    if s & sign != 0 {
        s & (sign - 1)
    } else {
        !s & all
    }
}

/// Sortable pattern of a raw float pattern whose sign bit sits at `sign`.
#[inline(always)]
fn float_sortable(raw: u32, sign: u32, all: u32) -> u32 {
    let bits = raw & all;
    if bits & sign != 0 {
        !bits & all
    } else {
        bits | sign
    }
}

#[inline(always)]
fn nan_to(v: f32, inf: f32) -> f32 {
    if v.is_nan() {
        inf
    } else {
        v
    }
}

impl Elem for F32 {
    const BITS: u32 = 32;
    #[inline(always)]
    fn sortable(raw: u32) -> u32 {
        float_sortable(raw, 0x8000_0000, u32::MAX)
    }
    #[inline(always)]
    fn lo(s: u32) -> f32 {
        nan_to(
            f32::from_bits(float_raw(s, 0x8000_0000, u32::MAX)),
            f32::NEG_INFINITY,
        )
    }
    #[inline(always)]
    fn hi(s: u32) -> f32 {
        nan_to(
            f32::from_bits(float_raw(s, 0x8000_0000, u32::MAX)),
            f32::INFINITY,
        )
    }
}

impl Elem for F16 {
    const BITS: u32 = 16;
    #[inline(always)]
    fn sortable(raw: u32) -> u32 {
        float_sortable(raw, 0x8000, 0xffff)
    }
    #[inline(always)]
    fn lo(s: u32) -> f32 {
        nan_to(
            f16_bits_to_f32(float_raw(s, 0x8000, 0xffff) as u16),
            f32::NEG_INFINITY,
        )
    }
    #[inline(always)]
    fn hi(s: u32) -> f32 {
        nan_to(
            f16_bits_to_f32(float_raw(s, 0x8000, 0xffff) as u16),
            f32::INFINITY,
        )
    }
}

impl Elem for Bf16 {
    const BITS: u32 = 16;
    #[inline(always)]
    fn sortable(raw: u32) -> u32 {
        float_sortable(raw, 0x8000, 0xffff)
    }
    #[inline(always)]
    fn lo(s: u32) -> f32 {
        nan_to(
            bf16_bits_to_f32(float_raw(s, 0x8000, 0xffff) as u16),
            f32::NEG_INFINITY,
        )
    }
    #[inline(always)]
    fn hi(s: u32) -> f32 {
        nan_to(
            bf16_bits_to_f32(float_raw(s, 0x8000, 0xffff) as u16),
            f32::INFINITY,
        )
    }
}

/// `max(x, 0)` as the comparison `x > 0`: NaN and −0 give +0.
#[inline(always)]
fn positive_part(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

impl Bound for L2 {
    /// Both terms of the square are +0 or positive (NaN gives +0), so a
    /// contribution lies in `[0, +∞]`.
    const NEVER_UNBOUNDED: bool = true;

    /// `((lo − q)⁺ + (q − hi)⁺)²`: at most one term is nonzero (lo ≤ hi)
    /// and the other is +0, so the sum is exactly the nearer endpoint's
    /// gap, or +0 when `q` lies inside the interval.
    #[inline(always)]
    fn contribution(lo: f32, hi: f32, q: f32) -> f64 {
        let q = q as f64;
        let gap = positive_part(lo as f64 - q) + positive_part(q - hi as f64);
        gap * gap
    }
}

impl Bound for Ip {
    /// An unfetched float element, or an infinite query coordinate, gives
    /// −∞.
    const NEVER_UNBOUNDED: bool = false;

    #[inline(always)]
    fn contribution(lo: f32, hi: f32, q: f32) -> f64 {
        if q == 0.0 {
            // A zero query coordinate contributes nothing (and avoids
            // 0 × ∞ = NaN on unbounded intervals).
            return 0.0;
        }
        let q = q as f64;
        -(lo as f64 * q).max(hi as f64 * q)
    }
}

/// Mask of the `bits − known` unknown low bits of a `bits`-wide element.
#[inline(always)]
pub(crate) fn missing_mask(bits: u32, known: u32) -> u32 {
    let missing = bits - known;
    if missing >= 32 {
        u32::MAX
    } else {
        (1u32 << missing) - 1
    }
}

/// Contribution of an element with sortable pattern `s` whose unknown
/// bits are `ones`, against query coordinate `q`.
#[inline(always)]
pub(crate) fn element<E: Elem, M: Bound>(s: u32, ones: u32, q: f32) -> f64 {
    M::contribution(E::lo(s & !ones), E::hi(s | ones), q)
}

/// Run `$body` with the type aliases `$E: Elem` and `$M: Bound` bound to
/// the instantiation for `$dtype` and `$metric`.
///
/// Datasets store the folded search metric, so cosine never reaches the
/// kernel.
macro_rules! dispatch {
    ($dtype:expr, $metric:expr, $E:ident, $M:ident => $body:expr) => {{
        use ansmet_vecdata::{ElemType, Metric};
        #[allow(unused_imports)]
        use $crate::kernel::{Bf16, Ip, F16, F32, I8, L2, U8};
        match ($dtype, $metric) {
            (ElemType::U8, Metric::L2) => {
                type $E = U8;
                type $M = L2;
                $body
            }
            (ElemType::U8, Metric::Ip) => {
                type $E = U8;
                type $M = Ip;
                $body
            }
            (ElemType::I8, Metric::L2) => {
                type $E = I8;
                type $M = L2;
                $body
            }
            (ElemType::I8, Metric::Ip) => {
                type $E = I8;
                type $M = Ip;
                $body
            }
            (ElemType::F32, Metric::L2) => {
                type $E = F32;
                type $M = L2;
                $body
            }
            (ElemType::F32, Metric::Ip) => {
                type $E = F32;
                type $M = Ip;
                $body
            }
            (ElemType::F16, Metric::L2) => {
                type $E = F16;
                type $M = L2;
                $body
            }
            (ElemType::F16, Metric::Ip) => {
                type $E = F16;
                type $M = Ip;
                $body
            }
            (ElemType::Bf16, Metric::L2) => {
                type $E = Bf16;
                type $M = L2;
                $body
            }
            (ElemType::Bf16, Metric::Ip) => {
                type $E = Bf16;
                type $M = Ip;
                $body
            }
            (_, Metric::Cosine) => unreachable!("datasets store cosine folded to IP"),
        }
    }};
}
pub(crate) use dispatch;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::DistanceBounder;
    use crate::encode::to_sortable;
    use crate::interval::ValueInterval;
    use ansmet_vecdata::{ElemType, Metric};

    /// Every raw pattern of the 8/16-bit types, at every known-bit count,
    /// against a spread of query coordinates, matches the interval path.
    fn exhaustive<E: Elem, M: Bound>(dtype: ElemType, metric: Metric) {
        let bounder = DistanceBounder::new(metric);
        let queries = [-300.5f32, -1.0, -0.0, 0.0, 0.25, 3.0, 77.0, 1e6];
        for raw in 0..(1u32 << E::BITS) {
            let s = to_sortable(dtype, raw);
            assert_eq!(E::sortable(raw), s, "{dtype:?} raw {raw:#x}");
            for known in 0..=E::BITS {
                let prefix = if known == 0 {
                    0
                } else {
                    s >> (E::BITS - known)
                };
                let iv = ValueInterval::from_prefix(dtype, prefix, known);
                let ones = missing_mask(E::BITS, known);
                for &q in &queries {
                    let want = bounder.contribution(iv, q);
                    let got = element::<E, M>(s, ones, q);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{dtype:?}/{metric:?} raw {raw:#x} known {known} q {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn eight_bit_kernels_match_the_interval_path() {
        exhaustive::<U8, L2>(ElemType::U8, Metric::L2);
        exhaustive::<U8, Ip>(ElemType::U8, Metric::Ip);
        exhaustive::<I8, L2>(ElemType::I8, Metric::L2);
        exhaustive::<I8, Ip>(ElemType::I8, Metric::Ip);
    }

    /// Every 16-bit pattern transforms and decodes like the interval path
    /// (masked endpoints are themselves patterns, so this covers them).
    fn sixteen_bit<E: Elem>(dtype: ElemType) {
        for raw in 0..=0xffffu32 {
            let s = E::sortable(raw);
            assert_eq!(s, to_sortable(dtype, raw));
            let iv = ValueInterval::from_prefix(dtype, s, 16);
            assert_eq!(E::lo(s).to_bits(), iv.lo.to_bits(), "{dtype:?} {raw:#x}");
            assert_eq!(E::hi(s).to_bits(), iv.hi.to_bits(), "{dtype:?} {raw:#x}");
        }
    }

    #[test]
    fn sixteen_bit_sortable_and_endpoints_match() {
        sixteen_bit::<F16>(ElemType::F16);
        sixteen_bit::<Bf16>(ElemType::Bf16);
    }

    /// No interval of the type gives an L2 contribution of −∞, whatever
    /// the query coordinate.
    fn l2_never_unbounded<E: Elem>(raws: impl Iterator<Item = u32>) {
        let queries = [
            -300.5f32,
            -0.0,
            0.0,
            3.0,
            1e6,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for raw in raws {
            let s = E::sortable(raw);
            for known in 0..=E::BITS {
                let ones = missing_mask(E::BITS, known);
                for q in queries {
                    let c = element::<E, L2>(s, ones, q);
                    assert_ne!(c, f64::NEG_INFINITY, "raw {raw:#x} known {known} q {q}");
                }
            }
        }
    }

    #[test]
    fn never_unbounded_rules_out_negative_infinity() {
        const { assert!(L2::NEVER_UNBOUNDED && !Ip::NEVER_UNBOUNDED) };
        l2_never_unbounded::<U8>(0..1 << 8);
        l2_never_unbounded::<I8>(0..1 << 8);
        l2_never_unbounded::<F16>(0..1 << 16);
        l2_never_unbounded::<Bf16>(0..1 << 16);
        l2_never_unbounded::<F32>((0..=u32::MAX).step_by(1 << 16));
        // Inner product makes no such claim: an unfetched float reaches −∞.
        assert_eq!(element::<F32, Ip>(0, u32::MAX, 1.0), f64::NEG_INFINITY);
    }
}
