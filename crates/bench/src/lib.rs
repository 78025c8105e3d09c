//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each experiment has a binary under `src/bin` (`table1` … `table7`,
//! `circuit_m`, `circuit_c`, `fig1_defect_classes`, `fig4_taxonomy`,
//! `fig6_cpt_walkthrough`, `all_experiments`) and a function here that the
//! binaries, the benchmarks and the integration tests share.
//!
//! Experiments accept a [`RunScale`]: `quick()` shrinks the synthetic
//! circuits and campaign sizes so every experiment finishes in seconds;
//! `full()` uses the paper's circuit sizes and counts (minutes to hours).
//! Pass `--full` to any binary to switch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod flow;
pub mod multi;
pub mod noise_sweep;
pub mod silicon;
pub mod tables;

pub use flow::{analyze_datalog, run_flow};

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunScale {
    /// Divisor applied to the paper's circuit sizes (1 = full size).
    pub circuit_divisor: usize,
    /// Number of test patterns applied (the paper: 25 for A, 500 for B/H,
    /// 1055 for M, 1000 for C).
    pub patterns: usize,
    /// Instances per cell in the Table-5 campaign (paper: 100).
    pub instances_per_cell: usize,
    /// Defects per instance in the Table-5 campaign (paper: 10).
    pub defects_per_instance: usize,
}

impl RunScale {
    /// Seconds-scale runs: scaled-down circuits, small campaigns.
    pub fn quick() -> Self {
        RunScale {
            circuit_divisor: 2000,
            patterns: 64,
            instances_per_cell: 3,
            defects_per_instance: 3,
        }
    }

    /// Paper-scale structure (still bounded to finish unattended: the
    /// multi-million-gate circuits are divided by 100; see DESIGN.md).
    pub fn full() -> Self {
        RunScale {
            circuit_divisor: 100,
            patterns: 500,
            instances_per_cell: 10,
            defects_per_instance: 10,
        }
    }

    /// Parses `--full` from command-line arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            RunScale::full()
        } else {
            RunScale::quick()
        }
    }
}
