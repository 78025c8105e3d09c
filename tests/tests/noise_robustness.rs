//! The pipeline-level no-panic guarantee: a datalog corrupted by any
//! noise-model sequence — truncation, drops, spurious fails, flipped
//! outputs, a mutated `patterns` header — flows through sanitation,
//! inter-cell diagnosis, local pattern extraction and intra-cell
//! diagnosis without panicking, and the staged flow degrades gracefully
//! instead of aborting.

#![allow(clippy::unwrap_used, clippy::panic)] // test code

use std::sync::OnceLock;

use icd_core::LocalTest;
use icd_engine::flow::{analyze_datalog_report, to_local_tests, ExperimentContext, FlowError};
use icd_faultsim::{datalog_text, run_test, Corruption, Datalog, FaultyGate, NoiseModel};
use icd_intercell::IntercellError;
use proptest::prelude::*;

/// A small circuit with one excited defect, shared across cases (the
/// pipeline is deterministic, so reuse is sound).
struct Fixture {
    ctx: ExperimentContext,
    clean: Datalog,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ctx = ExperimentContext::from_preset(
            &icd_netlist::generator::GeneratorConfig {
                name: "noise".into(),
                gates: 80,
                primary_inputs: 8,
                primary_outputs: 6,
                flip_flops: 4,
                scan_chains: 1,
                seed: 0x4015e,
            },
            1,
            32,
        )
        .unwrap();
        // Find an excited stuck-class defect on any instance.
        let mix = icd_defects::MixConfig {
            stuck: 1.0,
            bridge: 0.0,
            delay: 0.0,
            ..icd_defects::MixConfig::default()
        };
        let clean = ctx
            .circuit
            .gates()
            .find_map(|gate| {
                let cell = ctx.cells.get(ctx.circuit.gate_type(gate).name())?;
                let sample = icd_defects::sample_defects(cell.netlist(), 4, &mix, 7).ok()?;
                sample.iter().find_map(|inj| {
                    let behavior = inj.characterization.behavior.clone()?;
                    let log = run_test(
                        &ctx.circuit,
                        &ctx.patterns,
                        &FaultyGate::new(gate, behavior),
                    )
                    .ok()?;
                    (!log.all_pass()).then_some(log)
                })
            })
            .expect("some defect is excited");
        Fixture { ctx, clean }
    })
}

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (0usize..12).prop_map(Corruption::TruncateAfter),
        (0u64..=100).prop_map(|p| Corruption::DropEntries {
            rate: p as f64 / 100.0
        }),
        (0u64..=30).prop_map(|p| Corruption::SpuriousFails {
            rate: p as f64 / 100.0
        }),
        (0u64..=100).prop_map(|p| Corruption::FlipOutputs {
            rate: p as f64 / 100.0
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The staged flow accepts any corrupted datalog: it returns a report
    /// (possibly degraded, never a panic), and per-gate skips carry a
    /// stage and a structured cause.
    #[test]
    fn staged_flow_survives_any_corruption(
        seed in any::<u64>(),
        corruptions in prop::collection::vec(arb_corruption(), 1..=3),
    ) {
        let fx = fixture();
        let model = NoiseModel { seed, corruptions };
        let noisy = model.apply(&fx.clean, fx.ctx.circuit.outputs().len());
        let report = analyze_datalog_report(&fx.ctx, &noisy);
        prop_assert!(report.is_ok(), "whole-circuit stage failed: {:?}", report.err());
        let report = report.unwrap();
        for a in &report.analyses {
            prop_assert!(a.lfp > 0);
        }
        for s in &report.skipped {
            // Every skip names its stage and formats its cause.
            let _ = format!("{} at {}: {}", fx.ctx.circuit.gate_name(s.gate), s.stage, s.error);
        }
    }

    /// The raw (unsanitized) corrupted datalog never panics the
    /// inter-cell or intra-cell engines: they return Ok or a structured
    /// error.
    #[test]
    fn engines_never_panic_on_unsanitized_noise(
        seed in any::<u64>(),
        corruptions in prop::collection::vec(arb_corruption(), 1..=3),
    ) {
        let fx = fixture();
        let model = NoiseModel { seed, corruptions };
        let noisy = model.apply(&fx.clean, fx.ctx.circuit.outputs().len());
        let Ok(inter) = icd_intercell::diagnose(&fx.ctx.circuit, &fx.ctx.patterns, &noisy)
        else {
            return Ok(()); // structured error: acceptable for raw noise
        };
        for &gate in inter.multiplet.iter().take(2) {
            let Ok(local) = icd_intercell::extract_local_patterns(
                &fx.ctx.circuit,
                &fx.ctx.patterns,
                &noisy,
                gate,
            ) else {
                continue;
            };
            let lfp: Vec<LocalTest> = to_local_tests(&local.lfp);
            let lpp: Vec<LocalTest> = to_local_tests(&local.lpp);
            let Some(cell) = fx.ctx.cells.get(fx.ctx.circuit.gate_type(gate).name())
            else {
                continue;
            };
            // Err (e.g. NoFailingPatterns) is fine; panics are not.
            let _ = icd_core::diagnose(cell.netlist(), &lfp, &lpp);
        }
    }

    /// A mutated `patterns` header — below, at or past the applied count
    /// — never panics parse → sanitize → diagnose: the text either fails
    /// to parse (an entry past the header), or the flow answers, or a
    /// header past the applied set is the typed `PatternCountExceeded`.
    #[test]
    fn pattern_header_mutation_never_panics(
        seed in any::<u64>(),
        corruptions in prop::collection::vec(arb_corruption(), 0..=2),
        claimed in 0usize..=96,
    ) {
        let fx = fixture();
        let noisy = NoiseModel { seed, corruptions }.apply(&fx.clean, fx.ctx.circuit.outputs().len());
        let text = datalog_text::write(&noisy).replacen(
            &format!("patterns {}\n", noisy.num_patterns),
            &format!("patterns {claimed}\n"),
            1,
        );
        let Ok(parsed) = datalog_text::parse(&text) else {
            return Ok(()); // structured parse error
        };
        prop_assert_eq!(parsed.num_patterns, claimed);
        let applied = fx.ctx.patterns.len();
        match analyze_datalog_report(&fx.ctx, &parsed) {
            Ok(report) => prop_assert!(
                claimed <= applied || report.failing_patterns == 0,
                "header {claimed} past {applied} patterns was diagnosed"
            ),
            Err(FlowError::Intercell(IntercellError::PatternCountExceeded {
                claimed: c,
                applied: a,
            })) => prop_assert_eq!((c, a), (claimed, applied)),
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// Fail-memory truncation alone never removes the defect's gate from
    /// the candidate list as long as one failing entry survives.
    #[test]
    fn truncation_keeps_candidates_nonempty(n in 1usize..8) {
        let fx = fixture();
        let noisy = NoiseModel::single(0, Corruption::TruncateAfter(n))
            .apply(&fx.clean, fx.ctx.circuit.outputs().len());
        prop_assert!(!noisy.entries.is_empty());
        let inter =
            icd_intercell::diagnose(&fx.ctx.circuit, &fx.ctx.patterns, &noisy).unwrap();
        prop_assert!(!inter.candidates.is_empty());
        prop_assert!(!inter.multiplet.is_empty());
    }
}
