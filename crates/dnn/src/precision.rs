//! Numeric precision formats for model weights and activations.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A numeric precision format, as selectable when building a TensorRT-style
/// engine.
///
/// The paper sweeps all four formats; note that `tf32` is a *19-bit*
/// compute format stored in 32-bit containers, so it saves compute but not
/// memory relative to `fp32`.
///
/// # Examples
///
/// ```
/// use jetsim_dnn::Precision;
///
/// assert_eq!(Precision::Int8.weight_bytes(), 1);
/// assert_eq!(Precision::Tf32.weight_bytes(), 4);
/// assert_eq!("fp16".parse::<Precision>().unwrap(), Precision::Fp16);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(rename_all = "lowercase")]
pub enum Precision {
    /// 8-bit integer quantization (requires calibration).
    Int8,
    /// IEEE 754 half precision.
    Fp16,
    /// NVIDIA TensorFloat-32: fp32 storage, 10-bit-mantissa tensor-core math.
    Tf32,
    /// IEEE 754 single precision.
    #[default]
    Fp32,
}

impl Precision {
    /// All formats, in the order the paper's figures sweep them
    /// (increasing weight width).
    pub const ALL: [Precision; 4] = [
        Precision::Int8,
        Precision::Fp16,
        Precision::Tf32,
        Precision::Fp32,
    ];

    /// Bytes used to *store* one weight element in an engine built at this
    /// precision.
    pub const fn weight_bytes(self) -> u64 {
        match self {
            Precision::Int8 => 1,
            Precision::Fp16 => 2,
            Precision::Tf32 | Precision::Fp32 => 4,
        }
    }

    /// Bytes used to store one activation element at this precision.
    ///
    /// Identical to [`Precision::weight_bytes`] today, but kept separate
    /// because quantized engines sometimes keep activations wider than
    /// weights.
    pub const fn activation_bytes(self) -> u64 {
        self.weight_bytes()
    }

    /// Relative arithmetic density: how many operations fit in the unit
    /// that processes one fp32 operation on precision-complete hardware.
    pub const fn ops_per_fp32_slot(self) -> u64 {
        match self {
            Precision::Int8 => 4,
            Precision::Fp16 => 2,
            Precision::Tf32 => 1,
            Precision::Fp32 => 1,
        }
    }

    /// The canonical lowercase name used throughout the paper's figures.
    pub const fn as_str(self) -> &'static str {
        match self {
            Precision::Int8 => "int8",
            Precision::Fp16 => "fp16",
            Precision::Tf32 => "tf32",
            Precision::Fp32 => "fp32",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing an unknown precision name.
///
/// # Examples
///
/// ```
/// use jetsim_dnn::precision::ParsePrecisionError;
/// use jetsim_dnn::Precision;
///
/// let err: ParsePrecisionError = "bf16".parse::<Precision>().unwrap_err();
/// assert!(err.to_string().contains("bf16"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrecisionError {
    input: String,
}

impl fmt::Display for ParsePrecisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown precision `{}`, expected one of int8, fp16, tf32, fp32",
            self.input
        )
    }
}

impl std::error::Error for ParsePrecisionError {}

impl FromStr for Precision {
    type Err = ParsePrecisionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "int8" | "i8" => Ok(Precision::Int8),
            "fp16" | "half" | "f16" => Ok(Precision::Fp16),
            "tf32" => Ok(Precision::Tf32),
            "fp32" | "float" | "f32" => Ok(Precision::Fp32),
            _ => Err(ParsePrecisionError { input: s.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_bytes_ordering() {
        assert_eq!(Precision::Int8.weight_bytes(), 1);
        assert_eq!(Precision::Fp16.weight_bytes(), 2);
        assert_eq!(Precision::Tf32.weight_bytes(), 4);
        assert_eq!(Precision::Fp32.weight_bytes(), 4);
    }

    #[test]
    fn tf32_saves_compute_not_memory() {
        assert_eq!(
            Precision::Tf32.weight_bytes(),
            Precision::Fp32.weight_bytes()
        );
        assert_eq!(Precision::Tf32.ops_per_fp32_slot(), 1);
    }

    #[test]
    fn all_contains_each_exactly_once() {
        for p in Precision::ALL {
            assert_eq!(Precision::ALL.iter().filter(|&&q| q == p).count(), 1);
        }
    }

    #[test]
    fn parse_round_trips() {
        for p in Precision::ALL {
            assert_eq!(p.as_str().parse::<Precision>().unwrap(), p);
        }
    }

    #[test]
    fn parse_aliases_and_case() {
        assert_eq!("FP16".parse::<Precision>().unwrap(), Precision::Fp16);
        assert_eq!("half".parse::<Precision>().unwrap(), Precision::Fp16);
        assert_eq!("I8".parse::<Precision>().unwrap(), Precision::Int8);
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!("bf16".parse::<Precision>().is_err());
        let msg = "bf16".parse::<Precision>().unwrap_err().to_string();
        assert!(msg.contains("bf16"));
    }

    #[test]
    fn default_is_fp32() {
        assert_eq!(Precision::default(), Precision::Fp32);
    }

    #[test]
    fn display_matches_as_str() {
        for p in Precision::ALL {
            assert_eq!(format!("{p}"), p.as_str());
        }
    }
}
