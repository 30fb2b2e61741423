//! Error types for the `qsim` crate.

use std::error::Error;
use std::fmt;

/// Errors produced while building or simulating quantum circuits.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QsimError {
    /// A qubit index was at or beyond the circuit/state width.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The number of qubits available.
        num_qubits: usize,
    },
    /// The same qubit was passed twice to a multi-qubit operation.
    DuplicateQubit {
        /// The repeated qubit index.
        qubit: usize,
    },
    /// A vector or matrix had the wrong dimension.
    DimensionMismatch {
        /// Expected length/dimension.
        expected: usize,
        /// Actual length/dimension.
        actual: usize,
    },
    /// An amplitude vector did not have unit norm.
    NotNormalized {
        /// The squared norm that was observed.
        norm_sqr: f64,
    },
    /// Amplitudes fed to real-amplitude state preparation were negative or
    /// non-finite.
    InvalidAmplitude {
        /// Index of the bad amplitude.
        index: usize,
    },
    /// A probability was outside `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// A classical bit index was out of range.
    ClbitOutOfRange {
        /// The offending classical bit index.
        clbit: usize,
        /// The number of classical bits available.
        num_clbits: usize,
    },
    /// Allocating a density matrix of this width would exceed the
    /// simulator's memory budget
    /// ([`crate::density::DENSITY_MEMORY_BUDGET_BYTES`]).
    ExceedsMemoryBudget {
        /// The requested register width.
        num_qubits: usize,
        /// The widest register the budget admits.
        max_qubits: usize,
    },
    /// A [`crate::noise::NoiseModel`] parameter was outside its range.
    InvalidNoiseParameter {
        /// The offending field's name.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// The range the field must lie in.
        expected: &'static str,
    },
    /// The operation is not supported by the chosen backend.
    Unsupported(String),
}

impl fmt::Display for QsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsimError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit index {qubit} out of range for {num_qubits} qubits"
                )
            }
            QsimError::DuplicateQubit { qubit } => {
                write!(f, "qubit {qubit} used more than once in a single operation")
            }
            QsimError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            QsimError::NotNormalized { norm_sqr } => {
                write!(f, "state is not normalized: squared norm is {norm_sqr}")
            }
            QsimError::InvalidAmplitude { index } => {
                write!(f, "invalid amplitude at index {index}")
            }
            QsimError::InvalidProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            QsimError::ClbitOutOfRange { clbit, num_clbits } => {
                write!(
                    f,
                    "classical bit {clbit} out of range for {num_clbits} bits"
                )
            }
            QsimError::ExceedsMemoryBudget {
                num_qubits,
                max_qubits,
            } => {
                write!(
                    f,
                    "a {num_qubits}-qubit density matrix would exceed the memory \
                     budget (at most {max_qubits} qubits)"
                )
            }
            QsimError::InvalidNoiseParameter {
                field,
                value,
                expected,
            } => write!(f, "noise parameter {field} = {value} must be {expected}"),
            QsimError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl Error for QsimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = QsimError::QubitOutOfRange {
            qubit: 9,
            num_qubits: 3,
        };
        assert_eq!(e.to_string(), "qubit index 9 out of range for 3 qubits");
        let e = QsimError::NotNormalized { norm_sqr: 2.0 };
        assert!(e.to_string().contains("not normalized"));
        let e = QsimError::Unsupported("conditional gates".into());
        assert!(e.to_string().contains("conditional gates"));
        let e = QsimError::ExceedsMemoryBudget {
            num_qubits: 20,
            max_qubits: 13,
        };
        assert!(e.to_string().contains("20-qubit"));
        assert!(e.to_string().contains("13"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QsimError>();
    }
}
