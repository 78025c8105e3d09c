use std::error::Error;
use std::fmt;

use icd_faultsim::FaultSimError;

/// Errors produced by inter-cell diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntercellError {
    /// The underlying simulation failed.
    Simulation(FaultSimError),
    /// The datalog references a pattern index outside the applied set.
    BadPatternIndex(usize),
    /// The datalog references an observe-point index outside the circuit's
    /// output list.
    BadOutputIndex(usize),
    /// The datalog's header claims more patterns than were applied, so
    /// its passing patterns would index past the good simulation.
    PatternCountExceeded {
        /// The datalog's `patterns` header.
        claimed: usize,
        /// Patterns actually applied.
        applied: usize,
    },
}

impl fmt::Display for IntercellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntercellError::Simulation(e) => write!(f, "simulation failed: {e}"),
            IntercellError::BadPatternIndex(t) => {
                write!(f, "datalog references pattern {t} outside the applied set")
            }
            IntercellError::BadOutputIndex(i) => {
                write!(
                    f,
                    "datalog references output {i} outside the circuit interface"
                )
            }
            IntercellError::PatternCountExceeded { claimed, applied } => write!(
                f,
                "datalog claims {claimed} patterns but only {applied} were applied"
            ),
        }
    }
}

impl Error for IntercellError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IntercellError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultSimError> for IntercellError {
    fn from(e: FaultSimError) -> Self {
        IntercellError::Simulation(e)
    }
}
