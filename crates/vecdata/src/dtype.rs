//! Element datatypes and bit-level encode/decode.
//!
//! ANSMET's early termination works on the *stored bit pattern* of each
//! element, so every type here exposes both a canonical `f32` value and a
//! raw storage pattern (LSB-aligned in a `u32`).

/// Element datatype of a dataset (Table 2 uses UINT8, INT8, and FP32; the
/// NDP unit also supports FP16/BF16 per §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// 8-bit unsigned integer (SIFT, BigANN).
    U8,
    /// 8-bit signed integer (SPACEV).
    I8,
    /// 32-bit IEEE-754 float (DEEP, GloVe, Txt2Img, GIST).
    F32,
    /// 16-bit IEEE-754 half float.
    F16,
    /// bfloat16.
    Bf16,
}

impl ElemType {
    /// Storage width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            ElemType::U8 | ElemType::I8 => 8,
            ElemType::F16 | ElemType::Bf16 => 16,
            ElemType::F32 => 32,
        }
    }

    /// Storage width in bytes.
    pub fn bytes(self) -> usize {
        (self.bits() / 8) as usize
    }

    /// Whether the type is a floating-point format.
    pub fn is_float(self) -> bool {
        matches!(self, ElemType::F32 | ElemType::F16 | ElemType::Bf16)
    }

    /// Quantize a canonical value to this type's raw storage bit pattern
    /// (LSB-aligned). Values outside the representable range saturate.
    pub fn encode(self, value: f32) -> u32 {
        match self {
            ElemType::U8 => value.round().clamp(0.0, 255.0) as u32,
            ElemType::I8 => (value.round().clamp(-128.0, 127.0) as i32 as u32) & 0xff,
            ElemType::F32 => value.to_bits(),
            ElemType::F16 => f32_to_f16_bits(value) as u32,
            ElemType::Bf16 => f32_to_bf16_bits(value) as u32,
        }
    }

    /// Decode a raw storage pattern back to the canonical `f32` value.
    #[inline]
    pub fn decode(self, raw: u32) -> f32 {
        match self {
            ElemType::U8 => (raw & 0xff) as f32,
            ElemType::I8 => ((raw & 0xff) as u8 as i8) as f32,
            ElemType::F32 => f32::from_bits(raw),
            ElemType::F16 => f16_bits_to_f32(raw as u16),
            ElemType::Bf16 => bf16_bits_to_f32(raw as u16),
        }
    }
}

impl std::fmt::Display for ElemType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ElemType::U8 => "UINT8",
            ElemType::I8 => "INT8",
            ElemType::F32 => "FP32",
            ElemType::F16 => "FP16",
            ElemType::Bf16 => "BF16",
        };
        f.write_str(s)
    }
}

/// Convert `f32` to IEEE-754 binary16 bits with round-to-nearest-even.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x7f_ffff;

    if exp == 0xff {
        // Inf / NaN.
        let m = if mant != 0 { 0x200 } else { 0 };
        return sign | 0x7c00 | m;
    }
    // Re-bias: f32 bias 127 → f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal range.
        let half_exp = (unbiased + 15) as u32;
        let half_mant = mant >> 13;
        let rem = mant & 0x1fff;
        let mut h = (half_exp << 10) | half_mant;
        // Round to nearest even.
        if rem > 0x1000 || (rem == 0x1000 && (half_mant & 1) == 1) {
            h += 1;
        }
        return sign | h as u16;
    }
    if unbiased >= -24 {
        // Subnormal half.
        let shift = (-14 - unbiased) as u32;
        let full_mant = mant | 0x80_0000;
        let half_mant = full_mant >> (13 + shift);
        let rem_mask = (1u32 << (13 + shift)) - 1;
        let rem = full_mant & rem_mask;
        let half = 1u32 << (12 + shift);
        let mut h = half_mant;
        if rem > half || (rem == half && (half_mant & 1) == 1) {
            h += 1;
        }
        return sign | h as u16;
    }
    sign // underflow → signed zero
}

/// Convert IEEE-754 binary16 bits to `f32`.
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits as u32) & 0x8000) << 16;
    let exp = ((bits >> 10) & 0x1f) as u32;
    let mant = (bits & 0x3ff) as u32;
    let out = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: value = mant × 2⁻²⁴.
            let f = mant as f32 * (1.0 / 16_777_216.0);
            return if sign != 0 { -f } else { f };
        }
    } else if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else {
        sign | ((exp + 112) << 23) | (mant << 13)
    };
    f32::from_bits(out)
}

/// Convert `f32` to bfloat16 bits with round-to-nearest-even.
pub fn f32_to_bf16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    if value.is_nan() {
        return ((bits >> 16) as u16) | 0x40;
    }
    let round_bit = 0x8000u32;
    let lower = bits & 0xffff;
    let mut upper = bits >> 16;
    if lower > round_bit || (lower == round_bit && (upper & 1) == 1) {
        upper += 1;
    }
    upper as u16
}

/// Convert bfloat16 bits to `f32`.
#[inline]
pub fn bf16_bits_to_f32(bits: u16) -> f32 {
    f32::from_bits((bits as u32) << 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn widths() {
        assert_eq!(ElemType::U8.bits(), 8);
        assert_eq!(ElemType::I8.bits(), 8);
        assert_eq!(ElemType::F16.bits(), 16);
        assert_eq!(ElemType::Bf16.bits(), 16);
        assert_eq!(ElemType::F32.bits(), 32);
        assert_eq!(ElemType::F32.bytes(), 4);
    }

    #[test]
    fn u8_roundtrip_and_saturation() {
        assert_eq!(ElemType::U8.decode(ElemType::U8.encode(37.0)), 37.0);
        assert_eq!(ElemType::U8.encode(300.0), 255);
        assert_eq!(ElemType::U8.encode(-5.0), 0);
    }

    #[test]
    fn i8_roundtrip_and_sign() {
        assert_eq!(ElemType::I8.decode(ElemType::I8.encode(-100.0)), -100.0);
        assert_eq!(ElemType::I8.decode(ElemType::I8.encode(127.0)), 127.0);
        assert_eq!(ElemType::I8.encode(-200.0), 0x80); // saturate to -128
        assert_eq!(ElemType::I8.decode(0x80), -128.0);
    }

    #[test]
    fn f32_roundtrip_exact() {
        for v in [0.0f32, -1.5, std::f32::consts::PI, 1e-20, -1e20] {
            assert_eq!(ElemType::F32.decode(ElemType::F32.encode(v)), v);
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(0.5), 0x3800);
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xfc00), f32::NEG_INFINITY);
        // Subnormal: smallest positive half = 2^-24.
        assert_eq!(f16_bits_to_f32(0x0001), 2.0f32.powi(-24));
    }

    #[test]
    fn f16_overflow_to_inf() {
        assert_eq!(f32_to_f16_bits(1e9), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e9), 0xfc00);
    }

    #[test]
    fn bf16_known_values() {
        assert_eq!(bf16_bits_to_f32(0x3f80), 1.0);
        assert_eq!(f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(bf16_bits_to_f32(f32_to_bf16_bits(-0.15625)), -0.15625);
    }

    proptest! {
        #[test]
        fn f16_roundtrip_monotone_error(v in -60000.0f32..60000.0) {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            // binary16 has ~3 decimal digits: relative error < 2^-10.
            let err = (back - v).abs();
            prop_assert!(err <= v.abs() * 1.0 / 1024.0 + 1e-7, "v={v} back={back}");
        }

        #[test]
        fn bf16_roundtrip_error(v in -1e30f32..1e30) {
            let back = bf16_bits_to_f32(f32_to_bf16_bits(v));
            let err = (back - v).abs();
            prop_assert!(err <= v.abs() / 128.0 + 1e-38);
        }

        #[test]
        fn u8_encode_in_range(v in -1000.0f32..1000.0) {
            let raw = ElemType::U8.encode(v);
            prop_assert!(raw <= 255);
        }

        #[test]
        fn f16_order_preserved(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
            // Half conversion preserves non-strict order.
            let (fa, fb) = (f16_bits_to_f32(f32_to_f16_bits(a)), f16_bits_to_f32(f32_to_f16_bits(b)));
            if a <= b {
                prop_assert!(fa <= fb);
            }
        }
    }
}
