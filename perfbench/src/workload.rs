//! The benchmark's workloads: which design, which corpus, which traffic.

use icd_bench::flow::ExperimentContext;
use icd_netlist::generator::{self, GeneratorConfig};

use crate::daemon::Design;

/// How a workload drives the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Two connections, each sending single-datalog `Request` frames in
    /// a closed loop, cycling the corpus.
    Serve,
    /// One connection sending whole lots as `Volume` frames in a closed
    /// loop, cycling the corpus's lots.
    Volume,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The circuit preset.
    preset: fn() -> GeneratorConfig,
    /// Preset scale-down divisor (1 = full size).
    divisor: usize,
    /// Test-set length.
    patterns: usize,
    /// Lots in the corpus.
    pub lots: usize,
    /// Devices per lot.
    pub lot_size: usize,
    /// Traffic shape.
    pub traffic: Traffic,
    /// Connections driving the daemon.
    pub connections: usize,
}

/// Pool threads of the daemon under load (`nproc` of the reference
/// host), and the capacity `engine.utilization` divides by.
pub const WORKERS: usize = 2;

/// Every workload. The corpora are large enough that the accuracy
/// metrics and the mean request cost vary little from seed to seed.
pub const WORKLOADS: [Workload; 3] = [
    // Circuit A at full size, the paper's Tables 2-4 circuit. A request
    // takes a few milliseconds; the intra-cell core and the server layer
    // dominate, the inter-cell front end is the smaller part.
    Workload {
        name: "serve_a",
        preset: generator::circuit_a,
        divisor: 1,
        patterns: 25,
        lots: 64,
        lot_size: 32,
        traffic: Traffic::Serve,
        connections: 2,
    },
    // Circuit B at 1/400: the inter-cell front end takes most of a
    // request, local extraction most of the rest.
    Workload {
        name: "serve_b",
        preset: generator::circuit_b,
        divisor: 400,
        patterns: 64,
        lots: 48,
        lot_size: 32,
        traffic: Traffic::Serve,
        connections: 2,
    },
    // Circuit B at 1/100, whole 32-device lots as single Volume
    // requests: devices are diagnosed one after another inside one
    // request, and the only workload running icd-volume aggregation.
    Workload {
        name: "volume_b",
        preset: generator::circuit_b,
        divisor: 100,
        patterns: 128,
        lots: 4,
        lot_size: 32,
        traffic: Traffic::Volume,
        connections: 1,
    },
];

impl Workload {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The design's generator configuration at this workload's scale.
    fn config(&self) -> GeneratorConfig {
        let preset = (self.preset)();
        if self.divisor > 1 {
            preset.scaled_down(self.divisor)
        } else {
            preset
        }
    }

    /// The in-process experiment context (the reference's and the
    /// replay's view of the design).
    ///
    /// # Errors
    ///
    /// Circuit generation failures.
    pub fn context(&self) -> Result<ExperimentContext, String> {
        ExperimentContext::from_preset(&(self.preset)(), self.divisor, self.patterns)
            .map_err(|e| format!("building {}: {e}", self.name))
    }

    /// The design as the daemon receives it: the netlist text and the
    /// test set's recipe (`ExperimentContext::from_preset`'s pattern
    /// seed), as `icdiag gen` writes them.
    pub fn design(&self, ctx: &ExperimentContext) -> Design {
        Design {
            netlist: icd_netlist::format::write(&ctx.circuit),
            manifest: format!(
                "patterns={}\npattern_seed={}\n",
                self.patterns,
                self.config().seed ^ 0x7e57
            ),
        }
    }
}
