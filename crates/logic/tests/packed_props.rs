//! Differential property tests for the packed (bit-parallel) kernel: on
//! every lane, [`PackedEval`] must agree with [`TruthTable::eval`] —
//! including unknown inputs, unknown table entries and pattern counts
//! that do not fill a whole word.

#![allow(clippy::unwrap_used, clippy::panic)] // test code

use icd_logic::{Lv, PackedEval, PackedWord, TruthTable};
use proptest::prelude::*;

fn arb_lv() -> impl Strategy<Value = Lv> {
    prop_oneof![Just(Lv::Zero), Just(Lv::One), Just(Lv::U)]
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `PackedEval::eval_word` equals `TruthTable::eval` on every lane,
    /// for tables and inputs that may both contain `U`.
    #[test]
    fn eval_word_matches_ternary_eval(
        entries in prop::collection::vec(arb_lv(), 8),
        lanes in prop::collection::vec(prop::collection::vec(arb_lv(), 3), 1..=64),
    ) {
        let t = TruthTable::from_entries(3, entries).unwrap();
        let eval = PackedEval::from_table(&t);
        let words: Vec<PackedWord> = (0..3)
            .map(|pin| {
                let column: Vec<Lv> = lanes.iter().map(|l| l[pin]).collect();
                word_of(&column)
            })
            .collect();
        let out = eval.eval_word(&words).unwrap();
        for (i, lane) in lanes.iter().enumerate() {
            prop_assert_eq!(out.lane(i), t.eval(lane).unwrap(), "lane {}", i);
        }
    }

    /// The binary fast path equals `eval_bits` for fully specified
    /// inputs on a fully specified table.
    #[test]
    fn eval_binary_word_matches_eval_bits(
        entries in prop::collection::vec(any::<bool>(), 8),
        lanes in prop::collection::vec(prop::collection::vec(any::<bool>(), 3), 1..=64),
    ) {
        let t = TruthTable::from_entries(
            3,
            entries.iter().copied().map(Lv::from).collect(),
        ).unwrap();
        let eval = PackedEval::from_table(&t);
        let words: Vec<u64> = (0..3)
            .map(|pin| {
                lanes.iter().enumerate().fold(0u64, |acc, (i, l)| {
                    acc | (u64::from(l[pin]) << i)
                })
            })
            .collect();
        let out = eval.eval_binary_word(&words);
        for (i, lane) in lanes.iter().enumerate() {
            prop_assert_eq!(
                (out >> i) & 1 == 1,
                t.eval_bits(lane) == Lv::One,
                "lane {}", i
            );
        }
    }
}
