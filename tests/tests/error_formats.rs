//! Display and `source()` contracts of every error enum in the workspace:
//! each variant renders a human-readable message, and wrapper variants
//! expose their cause through the standard `Error::source` chain so
//! callers (and the flow report) can print full causal traces.

#![allow(clippy::unwrap_used, clippy::panic)] // test code

use std::error::Error;

use icd_core::CoreError;
use icd_defects::{BehaviorClass, DefectError};
use icd_engine::flow::{FlowError, FlowStage};
use icd_faultsim::FaultSimError;
use icd_intercell::IntercellError;
use icd_logic::TruthTableError;
use icd_netlist::NetlistError;
use icd_switch::SwitchError;

/// Every display string must be non-empty, single-line and not start with
/// whitespace (they get embedded in larger messages).
fn assert_displays(err: &dyn Error, expect_source: bool) {
    let text = err.to_string();
    assert!(!text.is_empty());
    assert!(!text.contains('\n'), "multi-line: {text:?}");
    assert!(!text.starts_with(char::is_whitespace), "padded: {text:?}");
    assert_eq!(err.source().is_some(), expect_source, "source of {text:?}");
    if let Some(cause) = err.source() {
        // The wrapper embeds its cause's message, so a caller printing
        // only the top level still sees the root cause.
        assert!(text.contains(&cause.to_string()), "{text:?} lacks cause");
    }
}

#[test]
fn netlist_error_formats() {
    for e in [
        NetlistError::UnknownGateType("ND2".into()),
        NetlistError::DuplicateGateType("ND2".into()),
        NetlistError::WrongPinCount {
            gate_type: "ND2".into(),
            expected: 2,
            got: 3,
        },
        NetlistError::PinNameCountMismatch {
            gate_type: "ND2".into(),
            table_inputs: 2,
            names: 1,
        },
        NetlistError::MultipleDrivers("n1".into()),
        NetlistError::UndrivenNet("n1".into()),
        NetlistError::CombinationalCycle("n1".into()),
        NetlistError::UnknownName("n1".into()),
        NetlistError::Parse {
            line: 3,
            message: "bad".into(),
        },
    ] {
        assert_displays(&e, false);
    }
}

#[test]
fn truth_table_error_formats() {
    for e in [
        TruthTableError::BadPatternChar('?'),
        TruthTableError::WrongEntryCount { inputs: 2, got: 3 },
        TruthTableError::WrongArity {
            expected: 2,
            got: 1,
        },
        TruthTableError::TooManyInputs(25),
    ] {
        assert_displays(&e, false);
    }
}

#[test]
fn switch_error_formats() {
    for e in [
        SwitchError::DuplicateNet("a".into()),
        SwitchError::DuplicateTransistor("m1".into()),
        SwitchError::NoOutput("INV".into()),
        SwitchError::DegenerateChannel("m1".into()),
        SwitchError::UnconnectedOutput("INV".into()),
        SwitchError::WrongArity {
            expected: 2,
            got: 1,
        },
        SwitchError::NoConvergence("INV".into()),
    ] {
        assert_displays(&e, false);
    }
}

#[test]
fn faultsim_error_formats() {
    for e in [
        FaultSimError::WrongPatternWidth {
            expected: 4,
            got: 3,
            pattern: 7,
        },
        FaultSimError::UnknownInPattern { pattern: 7 },
        FaultSimError::UnknownGoodValue("n1".into()),
        FaultSimError::WrongFaultArity {
            expected: 2,
            got: 3,
        },
        FaultSimError::ParseDatalog {
            line: 3,
            message: "unknown keyword".into(),
        },
    ] {
        assert_displays(&e, false);
    }
}

#[test]
fn defect_error_formats() {
    assert_displays(&DefectError::RailToRailShort, false);
    assert_displays(&DefectError::DegenerateShort, false);
    assert_displays(
        &DefectError::SamplingExhausted {
            class: BehaviorClass::StuckLike,
        },
        false,
    );
    assert_displays(
        &DefectError::Switch(SwitchError::NoConvergence("INV".into())),
        true,
    );
}

#[test]
fn intercell_error_formats() {
    assert_displays(&IntercellError::BadPatternIndex(9), false);
    assert_displays(&IntercellError::BadOutputIndex(9), false);
    assert_displays(
        &IntercellError::PatternCountExceeded {
            claimed: 200,
            applied: 25,
        },
        false,
    );
    assert_displays(
        &IntercellError::Simulation(FaultSimError::UnknownInPattern { pattern: 2 }),
        true,
    );
}

#[test]
fn core_error_formats() {
    assert_displays(&CoreError::NoFailingPatterns, false);
    assert_displays(
        &CoreError::WrongLocalWidth {
            expected: 2,
            got: 3,
        },
        false,
    );
    assert_displays(
        &CoreError::Switch(SwitchError::WrongArity {
            expected: 2,
            got: 1,
        }),
        true,
    );
}

#[test]
fn flow_error_formats_and_chains() {
    assert_displays(&FlowError::NotObservable, false);
    assert_displays(&FlowError::NoInstance("ND2".into()), false);
    assert_displays(&FlowError::NoLocalFailures, false);
    assert_displays(
        &FlowError::FaultSim(FaultSimError::UnknownInPattern { pattern: 1 }),
        true,
    );
    assert_displays(
        &FlowError::Intercell(IntercellError::BadPatternIndex(3)),
        true,
    );
    assert_displays(&FlowError::Core(CoreError::NoFailingPatterns), true);
    assert_displays(
        &FlowError::Netlist(NetlistError::UnknownName("n1".into())),
        true,
    );
    assert_displays(&FlowError::Defect(DefectError::RailToRailShort), true);
    assert_displays(&FlowError::Panicked("boom".into()), false);
    assert_displays(&FlowError::Cancelled, false);

    // A two-level chain stays walkable end to end.
    let deep = FlowError::Core(CoreError::Switch(SwitchError::NoConvergence("INV".into())));
    let mid = deep.source().unwrap();
    assert!(mid.source().is_some(), "chain stops at the first level");
}

#[test]
fn flow_stages_name_themselves() {
    for stage in [
        FlowStage::LocalExtraction,
        FlowStage::CellLookup,
        FlowStage::IntraCell,
        FlowStage::Ranking,
    ] {
        let text = stage.to_string();
        assert!(!text.is_empty());
        assert!(!text.contains('\n'));
    }
}
