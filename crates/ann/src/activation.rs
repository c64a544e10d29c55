//! Neuron activation functions (the FANN-style subset used here).

use adamant_json::{FromJson, Json, JsonError, ToJson};

/// Activation applied to a layer's weighted sums.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^(-2sx))` with steepness `s` (FANN's
    /// default output squashing; outputs in `(0, 1)`).
    Sigmoid {
        /// Steepness `s` (FANN defaults to 0.5).
        steepness: f64,
    },
    /// Symmetric sigmoid (tanh-shaped; outputs in `(-1, 1)`).
    SymmetricSigmoid {
        /// Steepness `s`.
        steepness: f64,
    },
    /// Identity (for regression outputs).
    Linear,
}

impl Activation {
    /// FANN's default hidden/output activation: sigmoid, steepness 0.5.
    pub fn fann_default() -> Self {
        Activation::Sigmoid { steepness: 0.5 }
    }

    /// Applies the activation.
    #[inline(always)]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Sigmoid { steepness } => 1.0 / (1.0 + exp(-2.0 * steepness * x)),
            Activation::SymmetricSigmoid { steepness } => (steepness * x).tanh(),
            Activation::Linear => x,
        }
    }

    /// [`apply`](Self::apply) over a slice: a loop the compiler vectorises at
    /// whatever width the caller was compiled for.
    #[inline(always)]
    pub(crate) fn apply_slice(self, xs: &mut [f64]) {
        if self != Activation::Linear {
            xs.iter_mut().for_each(|x| *x = self.apply(*x));
        }
    }

    /// Derivative expressed in terms of the activation *output* `y` (the
    /// form backpropagation uses).
    #[inline(always)]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Sigmoid { steepness } => {
                // Clamp to keep training moving when neurons saturate
                // (FANN applies the same trick).
                let y = y.clamp(0.01, 0.99);
                2.0 * steepness * y * (1.0 - y)
            }
            Activation::SymmetricSigmoid { steepness } => {
                let y = y.clamp(-0.98, 0.98);
                steepness * (1.0 - y * y)
            }
            Activation::Linear => 1.0,
        }
    }
}

/// `e^x` in basic IEEE operations only: training, the scalar pass and every
/// ISA tier of the tile kernel compute the same bits at any vector width on
/// any platform, where libm's `exp` is an opaque call. Within 2 ulp of the
/// true value; `x` is clamped to ±700, so the result is finite and normal;
/// NaN stays NaN. Derivation and error budget: DESIGN.md §5.3.
#[inline(always)]
fn exp(x: f64) -> f64 {
    // Adding 1.5·2^52 rounds to an integer, left in the low mantissa bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    // `ln 2` in two parts; `k * LN2_HI` is exact (21 trailing zero bits).
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    // c2..=c12 of e^r's degree-13 Taylor polynomial, Chebyshev-economised
    // to degree 12 on |r| ≤ ln2/2 (c0 = c1 = 1).
    const C: [u64; 11] = [
        0x3fe0_0000_0000_0000,
        0x3fc5_5555_5555_5562,
        0x3fa5_5555_5555_5555,
        0x3f81_1111_1110_db8e,
        0x3f56_c16c_16c1_6c17,
        0x3f2a_01a0_1b7f_7ce0,
        0x3efa_01a0_1a01_a01a,
        0x3ec7_1dde_78ad_96e1,
        0x3e92_7e4f_b778_9f5c,
        0x3e5a_f780_c76e_f867,
        0x3e21_eed8_eff8_d898,
    ];
    let x = x.clamp(-700.0, 700.0);
    let shifted = x * std::f64::consts::LOG2_E + ROUND;
    let k = shifted - ROUND;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let horner = |q: f64, &c: &u64| q * r + f64::from_bits(c);
    let q = C[..10].iter().rev().fold(f64::from_bits(C[10]), horner);
    // e^r = 1 + (r + r²·q), small terms first; 2^k by shifting k + 1023
    // into the exponent field.
    (1.0 + (r + r * r * q)) * f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
}

// Externally tagged, matching the serde derive layout the persisted
// selector artifacts were written with: struct variants are
// `{"Variant": {..fields..}}`, unit variants are `"Variant"`.
impl ToJson for Activation {
    fn to_json(&self) -> Json {
        match self {
            Activation::Sigmoid { steepness } => Json::Obj(vec![(
                "Sigmoid".to_owned(),
                Json::Obj(vec![("steepness".to_owned(), steepness.to_json())]),
            )]),
            Activation::SymmetricSigmoid { steepness } => Json::Obj(vec![(
                "SymmetricSigmoid".to_owned(),
                Json::Obj(vec![("steepness".to_owned(), steepness.to_json())]),
            )]),
            Activation::Linear => Json::Str("Linear".to_owned()),
        }
    }
}

impl FromJson for Activation {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = v {
            return match s.as_str() {
                "Linear" => Ok(Activation::Linear),
                other => Err(JsonError(format!("unknown Activation variant `{other}`"))),
            };
        }
        if let Some(body) = v.get("Sigmoid") {
            return Ok(Activation::Sigmoid {
                steepness: body.field("steepness")?,
            });
        }
        if let Some(body) = v.get("SymmetricSigmoid") {
            return Ok(Activation::SymmetricSigmoid {
                steepness: body.field("steepness")?,
            });
        }
        Err(JsonError(format!("invalid Activation: {}", v.kind())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_matches_serde_layout() {
        let a = Activation::Sigmoid { steepness: 0.5 };
        let text = adamant_json::to_string(&a);
        assert_eq!(text, r#"{"Sigmoid":{"steepness":0.5}}"#);
        assert_eq!(adamant_json::from_str::<Activation>(&text).unwrap(), a);
        assert_eq!(adamant_json::to_string(&Activation::Linear), "\"Linear\"");
        assert_eq!(
            adamant_json::from_str::<Activation>("\"Linear\"").unwrap(),
            Activation::Linear
        );
    }

    #[test]
    fn sigmoid_shape() {
        let a = Activation::fann_default();
        assert!((a.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(a.apply(10.0) > 0.99);
        assert!(a.apply(-10.0) < 0.01);
    }

    /// Distance in units in the last place between two finite doubles of
    /// the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        assert!(a.is_finite() && b.is_finite() && (a >= 0.0) == (b >= 0.0));
        a.to_bits().abs_diff(b.to_bits())
    }

    /// A dense sweep of [−40, 40] (over a million points), a coarse one of
    /// [−700, 700], and the neighbourhood of every reduction boundary
    /// `(k + ½)·ln 2`, |k| ≤ 64, where `k` flips and `r` changes sign.
    fn sweep() -> impl Iterator<Item = f64> {
        let dense = (0..=1_048_576u32).map(|i| -40.0 + 80.0 * f64::from(i) / 1_048_576.0);
        let coarse = (0..=140_000u32).map(|i| -700.0 + f64::from(i) / 100.0);
        let boundaries = (-64..=64).flat_map(|k| {
            let b = (f64::from(k) + 0.5) * std::f64::consts::LN_2;
            (-8i64..=8).map(move |step| f64::from_bits((b.to_bits() as i64 + step) as u64))
        });
        dense.chain(coarse).chain(boundaries)
    }

    #[test]
    fn exp_is_within_two_ulp_of_libm() {
        let mut worst = 0;
        for x in sweep() {
            worst = worst.max(ulps(exp(x), x.exp()));
        }
        assert!(worst <= 2, "worst error {worst} ulp");
        assert_eq!(exp(0.0), 1.0);
    }

    #[test]
    fn sigmoid_tracks_the_libm_sigmoid_and_stays_in_range() {
        for steepness in [0.5, 1.0] {
            let a = Activation::Sigmoid { steepness };
            assert_eq!(a.apply(0.0), 0.5);
            // −2·steepness·x spans the exp sweep's range.
            for x in sweep().map(|x| x / (-2.0 * steepness)) {
                let y = a.apply(x);
                let libm = 1.0 / (1.0 + (-2.0 * steepness * x).exp());
                assert!((0.0..=1.0).contains(&y), "sigmoid({x}) = {y}");
                // Where 2^53 ≤ e^t < 2^54, `1 + e^t` is a rounding tie:
                // a 1-ulp difference between two exps becomes 2 ulp of the
                // denominator and up to 4 of a quotient just under 2^-53.
                let tie = (2f64.powi(53)..2f64.powi(54)).contains(&exp(-2.0 * steepness * x));
                let bound = if tie { 4 } else { 2 };
                assert!(ulps(y, libm) <= bound, "sigmoid({x}) = {y}, libm {libm}");
            }
        }
    }

    #[test]
    fn exp_and_sigmoid_saturate_and_propagate_nan() {
        assert!(exp(f64::NAN).is_nan());
        assert!(exp(-f64::NAN).is_nan());
        assert!(exp(f64::from_bits(0x7ff8_0000_0000_0fff)).is_nan());
        let a = Activation::fann_default();
        assert!(a.apply(f64::NAN).is_nan());
        for big in [1e6, f64::MAX, f64::INFINITY] {
            assert_eq!(exp(big), exp(700.0));
            assert_eq!(exp(-big), exp(-700.0));
            assert!(exp(big).is_finite() && exp(-big) > 0.0);
            assert_eq!(a.apply(big), 1.0);
            let low = a.apply(-big);
            assert!((0.0..1e-300).contains(&low), "sigmoid({}) = {low}", -big);
        }
    }

    #[test]
    fn apply_slice_is_apply_on_every_element() {
        let xs: Vec<f64> = (-40..=40).map(|i| f64::from(i) * 0.37).collect();
        for a in [
            Activation::fann_default(),
            Activation::SymmetricSigmoid { steepness: 0.7 },
            Activation::Linear,
        ] {
            let mut ys = xs.clone();
            a.apply_slice(&mut ys);
            for (x, y) in xs.iter().zip(&ys) {
                assert_eq!(y.to_bits(), a.apply(*x).to_bits());
            }
        }
    }

    #[test]
    fn symmetric_sigmoid_and_linear_are_the_platform_functions() {
        let a = Activation::SymmetricSigmoid { steepness: 0.7 };
        for x in [-3.0, -0.4, 0.0, 0.9, 12.0] {
            assert_eq!(a.apply(x).to_bits(), (0.7 * x).tanh().to_bits());
            assert_eq!(Activation::Linear.apply(x).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn symmetric_sigmoid_shape() {
        let a = Activation::SymmetricSigmoid { steepness: 1.0 };
        assert!(a.apply(0.0).abs() < 1e-12);
        assert!(a.apply(5.0) > 0.99);
        assert!(a.apply(-5.0) < -0.99);
    }

    #[test]
    fn linear_is_identity() {
        assert_eq!(Activation::Linear.apply(3.25), 3.25);
        assert_eq!(Activation::Linear.derivative_from_output(3.25), 1.0);
    }

    #[test]
    fn sigmoid_derivative_matches_numeric() {
        let a = Activation::Sigmoid { steepness: 0.5 };
        let x = 0.3;
        let h = 1e-6;
        let numeric = (a.apply(x + h) - a.apply(x - h)) / (2.0 * h);
        let analytic = a.derivative_from_output(a.apply(x));
        assert!((numeric - analytic).abs() < 1e-6, "{numeric} vs {analytic}");
    }

    #[test]
    fn symmetric_derivative_matches_numeric() {
        let a = Activation::SymmetricSigmoid { steepness: 0.7 };
        let x = -0.4;
        let h = 1e-6;
        let numeric = (a.apply(x + h) - a.apply(x - h)) / (2.0 * h);
        let analytic = a.derivative_from_output(a.apply(x));
        assert!((numeric - analytic).abs() < 1e-6);
    }
}
