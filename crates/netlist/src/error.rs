use std::error::Error;
use std::fmt;

/// Errors produced while constructing, parsing or validating netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate type name was not found in the library.
    UnknownGateType(String),
    /// A gate type with this name already exists in the library.
    DuplicateGateType(String),
    /// A gate was instantiated with the wrong number of connections.
    WrongPinCount {
        /// The gate type being instantiated.
        gate_type: String,
        /// Pins the type declares.
        expected: usize,
        /// Nets supplied.
        got: usize,
    },
    /// A gate-type declaration's pin-name count disagrees with its table.
    PinNameCountMismatch {
        /// The gate type being declared.
        gate_type: String,
        /// Inputs the truth table declares.
        table_inputs: usize,
        /// Pin names supplied.
        names: usize,
    },
    /// A gate type declares more inputs than the simulator supports.
    ///
    /// Tables and packed evaluators enumerate `2^inputs` minterms, so the
    /// arity must be capped when a library is built, not when the shift
    /// finally overflows.
    ArityTooLarge {
        /// The gate type being declared.
        gate_type: String,
        /// Inputs declared.
        inputs: usize,
        /// The supported maximum ([`icd_logic::MAX_TRUTH_TABLE_INPUTS`]).
        max: usize,
    },
    /// A net is driven by more than one gate.
    MultipleDrivers(String),
    /// A gate input references a net that is never driven and is not an
    /// input.
    UndrivenNet(String),
    /// The gate graph contains a combinational cycle through the named net.
    CombinationalCycle(String),
    /// A name was referenced before being defined (text format).
    UnknownName(String),
    /// A line of the text format could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownGateType(n) => write!(f, "unknown gate type {n:?}"),
            NetlistError::DuplicateGateType(n) => {
                write!(f, "gate type {n:?} declared twice")
            }
            NetlistError::WrongPinCount {
                gate_type,
                expected,
                got,
            } => write!(
                f,
                "gate type {gate_type:?} has {expected} inputs, {got} nets were connected"
            ),
            NetlistError::PinNameCountMismatch {
                gate_type,
                table_inputs,
                names,
            } => write!(
                f,
                "gate type {gate_type:?}: truth table has {table_inputs} inputs but {names} pin names were given"
            ),
            NetlistError::ArityTooLarge {
                gate_type,
                inputs,
                max,
            } => write!(
                f,
                "gate type {gate_type:?} declares {inputs} inputs, more than the supported {max}"
            ),
            NetlistError::MultipleDrivers(n) => {
                write!(f, "net {n:?} is driven by more than one gate")
            }
            NetlistError::UndrivenNet(n) => {
                write!(f, "net {n:?} is used but never driven")
            }
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net {n:?}")
            }
            NetlistError::UnknownName(n) => write!(f, "unknown name {n:?}"),
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for NetlistError {}
