//! Bit-parallel (PPSFP-style) packing of ternary logic values.
//!
//! The diagnosis flow scores every candidate against *every* pattern — no
//! assumption restricts which failing patterns belong to which defect — so
//! simulation cost on the hot path is `patterns × gates`. This module packs
//! 64 patterns into one machine word as **two bit-planes**:
//!
//! * the *value* plane — bit `t` is 1 when pattern `t` holds logic `1`;
//! * the *known* plane — bit `t` is 1 when pattern `t` holds a known
//!   (`0`/`1`) value. A cleared known bit encodes [`Lv::U`].
//!
//! The planes keep the invariant `value & !known == 0` (an unknown lane
//! never carries a stray value bit) — see [`PackedWord`].
//!
//! [`PackedEval`] evaluates a ternary [`TruthTable`] one 64-lane word at a
//! time, with a minterm-OR fast path when a word is fully known and the
//! table is binary. Callers build the words from their own bit-planes
//! (`icd-faultsim`'s simulators, `icd-core`'s ranking).
//!
//! The serial, per-pattern evaluators ([`TruthTable::eval`] and friends)
//! remain the authoritative oracle: every packed operation is
//! differentially tested against them.

use crate::{Lv, TruthTable, TruthTableError};

/// 64 ternary logic values in two bit-planes (value + known mask).
///
/// Lane `t` (bit `t` of each plane) holds:
///
/// | known bit | value bit | lane value |
/// |-----------|-----------|------------|
/// | 0 | 0 | [`Lv::U`] |
/// | 1 | 0 | [`Lv::Zero`] |
/// | 1 | 1 | [`Lv::One`] |
///
/// The combination known = 0, value = 1 is unrepresentable: constructors
/// normalize it away, preserving `value & !known == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedWord {
    value: u64,
    known: u64,
}

impl PackedWord {
    /// Builds a word from raw planes, clearing value bits of unknown lanes.
    #[inline]
    pub fn new(value: u64, known: u64) -> PackedWord {
        PackedWord {
            value: value & known,
            known,
        }
    }

    /// One lane's value (`lane` is taken modulo 64).
    #[inline]
    pub fn lane(self, lane: usize) -> Lv {
        let bit = 1u64 << (lane % 64);
        if self.known & bit == 0 {
            Lv::U
        } else if self.value & bit == 0 {
            Lv::Zero
        } else {
            Lv::One
        }
    }

    /// Whether every lane of `mask` is known.
    #[inline]
    pub fn fully_known(self, mask: u64) -> bool {
        self.known & mask == mask
    }
}

/// Word-parallel evaluator for one [`TruthTable`], exact on ternary
/// lanes.
///
/// The table's minterms are split by output class once; evaluating a word
/// then costs `O(2^n · n)` word operations in the general case and
/// `O(|one_minterms| · n)` on the binary fast path — amortized over 64
/// lanes, against `64 · O(2^u)` serial [`TruthTable::eval`] calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedEval {
    inputs: usize,
    one_minterms: Vec<u32>,
    zero_minterms: Vec<u32>,
    u_minterms: Vec<u32>,
}

impl PackedEval {
    /// Precomputes the evaluator for a table.
    pub fn from_table(table: &TruthTable) -> PackedEval {
        let mut one_minterms = Vec::new();
        let mut zero_minterms = Vec::new();
        let mut u_minterms = Vec::new();
        for (m, &v) in table.entries().iter().enumerate() {
            match v {
                Lv::One => one_minterms.push(m as u32),
                Lv::Zero => zero_minterms.push(m as u32),
                Lv::U => u_minterms.push(m as u32),
            }
        }
        PackedEval {
            inputs: table.inputs(),
            one_minterms,
            zero_minterms,
            u_minterms,
        }
    }

    /// Number of table inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Whether the table has `U` entries (disables the binary fast path).
    pub fn has_unknown_entries(&self) -> bool {
        !self.u_minterms.is_empty()
    }

    /// Mask of lanes on which the minterm `m` is a *possible completion*
    /// of the input lanes: every input is either unknown or equal to the
    /// minterm's bit.
    #[inline]
    fn compatible(&self, m: u32, inputs: &[PackedWord]) -> u64 {
        let mut mask = !0u64;
        for (i, w) in inputs.iter().enumerate() {
            let want_one = (m >> i) & 1 == 1;
            let matches = if want_one { w.value } else { !w.value };
            mask &= matches | !w.known;
        }
        mask
    }

    /// Binary minterm-OR over fully known value planes. The caller must
    /// guarantee every lane of every input word is known and the table
    /// has no `U` entries; unknown lanes would silently evaluate as `0`.
    #[inline]
    pub fn eval_binary_word(&self, input_values: &[u64]) -> u64 {
        let mut out = 0u64;
        for &m in &self.one_minterms {
            let mut term = !0u64;
            for (i, &w) in input_values.iter().enumerate() {
                term &= if (m >> i) & 1 == 1 { w } else { !w };
            }
            out |= term;
        }
        out
    }

    /// Evaluates the table on one word of packed ternary inputs.
    ///
    /// Lane semantics are exactly [`TruthTable::eval`]: a lane's output is
    /// the unique output of all boolean completions of its (possibly
    /// unknown) inputs, or `U` when completions disagree or reach a `U`
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::WrongArity`] when the word count differs
    /// from the table's input count.
    pub fn eval_word(&self, inputs: &[PackedWord]) -> Result<PackedWord, TruthTableError> {
        if inputs.len() != self.inputs {
            return Err(TruthTableError::WrongArity {
                expected: self.inputs,
                got: inputs.len(),
            });
        }

        // Fast path: every lane known and the table binary — one
        // minterm-OR over the value planes.
        if self.u_minterms.is_empty() && inputs.iter().all(|w| w.fully_known(!0)) {
            let values: Vec<u64> = inputs.iter().map(|w| w.value).collect();
            return Ok(PackedWord {
                value: self.eval_binary_word(&values),
                known: !0,
            });
        }

        // General path: for each output class, the lanes on which some
        // completion reaches that class. A lane is One iff One is the
        // only reachable class; dually for Zero.
        let mut possible_one = 0u64;
        let mut possible_zero = 0u64;
        let mut possible_u = 0u64;
        for &m in &self.one_minterms {
            possible_one |= self.compatible(m, inputs);
        }
        for &m in &self.zero_minterms {
            possible_zero |= self.compatible(m, inputs);
        }
        for &m in &self.u_minterms {
            possible_u |= self.compatible(m, inputs);
        }
        let settled = !possible_u;
        let one = possible_one & !possible_zero & settled;
        let zero = possible_zero & !possible_one & settled;
        Ok(PackedWord {
            value: one,
            known: one | zero,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packs up to 64 lane values through [`PackedWord::new`].
    fn word_of(lanes: &[Lv]) -> PackedWord {
        let (mut value, mut known) = (0u64, 0u64);
        for (t, v) in lanes.iter().enumerate() {
            if let Some(bit) = v.to_bool() {
                known |= 1 << t;
                value |= u64::from(bit) << t;
            }
        }
        PackedWord::new(value, known)
    }

    #[test]
    fn new_normalizes_the_unrepresentable_combination() {
        let w = PackedWord::new(!0, 0b1010);
        assert_eq!(w, PackedWord::new(0b1010, 0b1010));
        assert_eq!(w.lane(0), Lv::U);
        assert_eq!(w.lane(1), Lv::One);
    }

    #[test]
    fn packed_eval_matches_serial_eval_on_every_ternary_combo() {
        // Tables with and without U entries, arity 2.
        let tables = [
            TruthTable::from_fn(2, |b| b[0] & b[1]),
            TruthTable::from_fn(2, |b| b[0] ^ b[1]),
            TruthTable::from_entries(2, vec![Lv::Zero, Lv::U, Lv::One, Lv::U]).unwrap(),
        ];
        let mut a_lanes = Vec::new();
        let mut b_lanes = Vec::new();
        for a in Lv::ALL {
            for b in Lv::ALL {
                a_lanes.push(a);
                b_lanes.push(b);
            }
        }
        let a = word_of(&a_lanes);
        let b = word_of(&b_lanes);
        for table in &tables {
            let eval = PackedEval::from_table(table);
            let out = eval.eval_word(&[a, b]).unwrap();
            for t in 0..a_lanes.len() {
                let want = table.eval(&[a_lanes[t], b_lanes[t]]).unwrap();
                assert_eq!(out.lane(t), want, "table {table}, lane {t}");
            }
        }
    }

    #[test]
    fn fast_path_and_general_path_agree_on_binary_words() {
        let table = TruthTable::from_fn(3, |b| (b[0] & b[1]) | b[2]);
        let eval = PackedEval::from_table(&table);
        let a = PackedWord::new(0xAAAA_AAAA_AAAA_AAAA, !0);
        let b_value = 0xCCCC_CCCC_CCCC_CCCC;
        let b = PackedWord::new(b_value, !0);
        let c = PackedWord::new(0xF0F0_F0F0_F0F0_F0F0, !0);
        // Fully known: the fast path fires.
        let fast = eval.eval_word(&[a, b, c]).unwrap();
        // Force the general path by marking one irrelevant lane unknown,
        // then compare the other lanes.
        let b_u = PackedWord::new(b_value, !0 >> 1);
        let general = eval.eval_word(&[a, b_u, c]).unwrap();
        for t in 0..63 {
            assert_eq!(fast.lane(t), general.lane(t), "lane {t}");
        }
        assert!(!eval.has_unknown_entries());
    }

    #[test]
    fn eval_word_checks_arity() {
        let eval = PackedEval::from_table(&TruthTable::from_fn(2, |b| b[0] & b[1]));
        assert!(matches!(
            eval.eval_word(&[PackedWord::default()]),
            Err(TruthTableError::WrongArity {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn zero_input_table_evaluates_constants() {
        let constant = TruthTable::from_fn(0, |_| true);
        let eval = PackedEval::from_table(&constant);
        let out = eval.eval_word(&[]).unwrap();
        assert_eq!(out.lane(0), Lv::One);
        assert!(out.fully_known(!0));
    }
}
