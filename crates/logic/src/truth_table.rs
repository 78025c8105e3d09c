use std::error::Error;
use std::fmt;

use crate::Lv;

/// Errors produced when building or evaluating [`TruthTable`]s and parsing
/// [`Pattern`](crate::Pattern)s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruthTableError {
    /// A pattern string contained a character other than `0`, `1`, `U`/`X`.
    BadPatternChar(char),
    /// The number of supplied entries does not equal `2^inputs`.
    WrongEntryCount {
        /// Number of inputs of the table.
        inputs: usize,
        /// Number of entries supplied.
        got: usize,
    },
    /// The table was evaluated with the wrong number of input values.
    WrongArity {
        /// Number of inputs the table expects.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// More inputs than the supported maximum (20).
    TooManyInputs(usize),
    /// Two tables (or patterns) of different arities were combined.
    ArityMismatch {
        /// Arity of the left-hand operand.
        left: usize,
        /// Arity of the right-hand operand.
        right: usize,
    },
    /// A position index was outside a pattern's width.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The pattern's width.
        len: usize,
    },
}

impl fmt::Display for TruthTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TruthTableError::BadPatternChar(c) => {
                write!(f, "invalid pattern character {c:?}")
            }
            // Checked shift: the variant is constructible with arbitrary
            // `inputs`, so the message must not overflow for >= 64.
            TruthTableError::WrongEntryCount { inputs, got } => {
                match 1usize.checked_shl(*inputs as u32) {
                    Some(needed) => write!(
                        f,
                        "a {inputs}-input table needs {needed} entries, got {got}"
                    ),
                    None => write!(
                        f,
                        "a {inputs}-input table needs 2^{inputs} entries, got {got}"
                    ),
                }
            }
            TruthTableError::WrongArity { expected, got } => {
                write!(f, "expected {expected} input values, got {got}")
            }
            TruthTableError::TooManyInputs(n) => {
                write!(f, "{n} inputs exceed the supported maximum of 20")
            }
            TruthTableError::ArityMismatch { left, right } => {
                write!(f, "arity mismatch: {left} vs {right} inputs")
            }
            TruthTableError::IndexOutOfBounds { index, len } => {
                write!(f, "position {index} is out of bounds for width {len}")
            }
        }
    }
}

impl Error for TruthTableError {}

/// Maximum number of inputs a [`TruthTable`] supports. Standard cells in the
/// paper have at most 5 inputs; 20 leaves generous headroom while keeping
/// the table (2^20 entries) small.
pub const MAX_TRUTH_TABLE_INPUTS: usize = 20;

/// An exhaustive single-output function of `n` binary inputs, with ternary
/// output.
///
/// This is the artifact the paper's defect-characterization step produces
/// ("the truth table is then used as library model, so that the whole faulty
/// circuit is simulated at gate level", §4) and the gate-level simulator
/// consumes. The output may be [`Lv::U`] for input combinations under which
/// a defective cell floats or fights.
///
/// Entry `i` is the output for the input combination whose bit `k` (LSB =
/// input 0) is `(i >> k) & 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    inputs: usize,
    entries: Vec<Lv>,
}

impl TruthTable {
    /// Builds a table from a boolean function of the input bits.
    ///
    /// # Panics
    ///
    /// Panics if `inputs > MAX_TRUTH_TABLE_INPUTS`; use
    /// [`TruthTable::try_from_fn`] when the arity is not statically known.
    pub fn from_fn<F: FnMut(&[bool]) -> bool>(inputs: usize, f: F) -> Self {
        TruthTable::try_from_fn(inputs, f).expect("too many truth table inputs")
    }

    /// Fallible [`TruthTable::from_fn`]: rejects wide arities instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::TooManyInputs`] when `inputs` exceeds
    /// [`MAX_TRUTH_TABLE_INPUTS`].
    pub fn try_from_fn<F: FnMut(&[bool]) -> bool>(
        inputs: usize,
        mut f: F,
    ) -> Result<Self, TruthTableError> {
        if inputs > MAX_TRUTH_TABLE_INPUTS {
            return Err(TruthTableError::TooManyInputs(inputs));
        }
        let mut entries = Vec::with_capacity(1 << inputs);
        let mut bits = vec![false; inputs];
        for i in 0..(1usize << inputs) {
            for (k, b) in bits.iter_mut().enumerate() {
                *b = (i >> k) & 1 == 1;
            }
            entries.push(Lv::from(f(&bits)));
        }
        Ok(TruthTable { inputs, entries })
    }

    /// Builds a table from explicit ternary entries.
    ///
    /// # Errors
    ///
    /// Returns an error when the entry count is not `2^inputs` or `inputs`
    /// exceeds the supported maximum.
    pub fn from_entries(inputs: usize, entries: Vec<Lv>) -> Result<Self, TruthTableError> {
        if inputs > MAX_TRUTH_TABLE_INPUTS {
            return Err(TruthTableError::TooManyInputs(inputs));
        }
        if entries.len() != 1 << inputs {
            return Err(TruthTableError::WrongEntryCount {
                inputs,
                got: entries.len(),
            });
        }
        Ok(TruthTable { inputs, entries })
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The raw entries (length `2^inputs`).
    pub fn entries(&self) -> &[Lv] {
        &self.entries
    }

    /// Evaluates the table for fully specified boolean inputs.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != self.inputs()`.
    pub fn eval_bits(&self, bits: &[bool]) -> Lv {
        assert_eq!(bits.len(), self.inputs, "wrong arity");
        let mut index = 0usize;
        for (k, b) in bits.iter().enumerate() {
            if *b {
                index |= 1 << k;
            }
        }
        self.entries[index]
    }

    /// Evaluates the table for ternary inputs.
    ///
    /// Unknown inputs are expanded: the result is the unique output if all
    /// boolean completions agree, `U` otherwise. Expansion is exponential in
    /// the number of `U` inputs but cells are tiny (≤ 5 inputs).
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::WrongArity`] when the value count differs
    /// from the table's input count.
    pub fn eval(&self, values: &[Lv]) -> Result<Lv, TruthTableError> {
        if values.len() != self.inputs {
            return Err(TruthTableError::WrongArity {
                expected: self.inputs,
                got: values.len(),
            });
        }
        let unknown: Vec<usize> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_known())
            .map(|(i, _)| i)
            .collect();
        let mut base = 0usize;
        for (k, v) in values.iter().enumerate() {
            if *v == Lv::One {
                base |= 1 << k;
            }
        }
        let mut result: Option<Lv> = None;
        for combo in 0..(1usize << unknown.len()) {
            let mut index = base;
            for (j, pos) in unknown.iter().enumerate() {
                if (combo >> j) & 1 == 1 {
                    index |= 1 << pos;
                }
            }
            let out = self.entries[index];
            match result {
                None => result = Some(out),
                Some(prev) if prev == out => {}
                Some(_) => return Ok(Lv::U),
            }
        }
        Ok(result.unwrap_or(Lv::U))
    }

    /// Input combinations (as bit vectors) on which `self` and `other`
    /// produce definitely different outputs.
    ///
    /// This is how the defect-injection campaign decides which cell-level
    /// patterns *activate* a static defect.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::ArityMismatch`] when the two tables have
    /// different input counts.
    pub fn differing_inputs(&self, other: &TruthTable) -> Result<Vec<Vec<bool>>, TruthTableError> {
        if self.inputs != other.inputs {
            return Err(TruthTableError::ArityMismatch {
                left: self.inputs,
                right: other.inputs,
            });
        }
        let mut out = Vec::new();
        for i in 0..(1usize << self.inputs) {
            if self.entries[i].conflicts_with(other.entries[i]) {
                out.push((0..self.inputs).map(|k| (i >> k) & 1 == 1).collect());
            }
        }
        Ok(out)
    }

    /// Whether the two tables agree on every fully specified input.
    pub fn equivalent(&self, other: &TruthTable) -> bool {
        self.inputs == other.inputs && self.entries == other.entries
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in &self.entries {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> TruthTable {
        TruthTable::from_fn(2, |b| b[0] & b[1])
    }

    #[test]
    fn from_fn_matches_direct_eval() {
        let t = and2();
        assert_eq!(t.eval_bits(&[false, false]), Lv::Zero);
        assert_eq!(t.eval_bits(&[true, false]), Lv::Zero);
        assert_eq!(t.eval_bits(&[false, true]), Lv::Zero);
        assert_eq!(t.eval_bits(&[true, true]), Lv::One);
    }

    #[test]
    fn ternary_eval_collapses_dont_cares() {
        let t = and2();
        // 0 & U = 0 regardless of the unknown input.
        assert_eq!(t.eval(&[Lv::Zero, Lv::U]).unwrap(), Lv::Zero);
        // 1 & U = U: the completions disagree.
        assert_eq!(t.eval(&[Lv::One, Lv::U]).unwrap(), Lv::U);
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let t = and2();
        assert!(matches!(
            t.eval(&[Lv::One]),
            Err(TruthTableError::WrongArity {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn from_entries_validates_count() {
        assert!(TruthTable::from_entries(2, vec![Lv::Zero; 3]).is_err());
        assert!(TruthTable::from_entries(2, vec![Lv::Zero; 4]).is_ok());
    }

    #[test]
    fn differing_inputs_finds_activations() {
        let good = and2();
        // Faulty AND whose output is stuck at 0: differs only on (1,1).
        let faulty = TruthTable::from_fn(2, |_| false);
        let diff = good.differing_inputs(&faulty).unwrap();
        assert_eq!(diff, vec![vec![true, true]]);
    }

    #[test]
    fn differing_inputs_rejects_arity_mismatch() {
        // Regression: this was an `assert_eq!` panic reachable from the
        // injection campaign; it must be a structured error.
        let good = and2();
        let other = TruthTable::from_fn(3, |b| b[0]);
        assert!(matches!(
            good.differing_inputs(&other),
            Err(TruthTableError::ArityMismatch { left: 2, right: 3 })
        ));
    }

    #[test]
    fn try_from_fn_boundary() {
        assert!(TruthTable::try_from_fn(MAX_TRUTH_TABLE_INPUTS, |_| false).is_ok());
        assert!(matches!(
            TruthTable::try_from_fn(MAX_TRUTH_TABLE_INPUTS + 1, |_| false),
            Err(TruthTableError::TooManyInputs(n)) if n == MAX_TRUTH_TABLE_INPUTS + 1
        ));
    }

    #[test]
    fn wrong_entry_count_display_never_overflows() {
        let small = TruthTableError::WrongEntryCount { inputs: 3, got: 7 };
        assert!(small.to_string().contains("needs 8 entries"));
        // A 64+-input count cannot be shifted; the message falls back to
        // the symbolic form instead of overflowing.
        let wide = TruthTableError::WrongEntryCount {
            inputs: 200,
            got: 1,
        };
        assert!(wide.to_string().contains("2^200"));
    }

    #[test]
    fn u_entries_do_not_count_as_differences() {
        let good = and2();
        let floaty =
            TruthTable::from_entries(2, vec![Lv::Zero, Lv::Zero, Lv::Zero, Lv::U]).unwrap();
        assert!(good.differing_inputs(&floaty).unwrap().is_empty());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(and2().to_string(), "0001");
    }
}
