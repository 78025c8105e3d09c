use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use icd_logic::packed::PackedEval;

use crate::cone::{ConeIndex, ConeSet, Levels};
use crate::{GateId, GateType, Library, NetId, NetlistError, TypeId};

/// A stable 64-bit fingerprint of a circuit's structural content.
///
/// The hash covers the interface (input/output net names in pin order),
/// the stitched scan chains, and the gate population (type name, output
/// net name, input net names in pin order). Gate records are combined
/// commutatively, so the hash is independent of gate *declaration*
/// order; nets contribute through their printable names (which the
/// [`format`](crate::format) text format round-trips), so parsing a
/// written netlist reproduces the original circuit's hash. The circuit
/// name is deliberately excluded: two identically structured designs
/// fingerprint equal.
///
/// The algorithm is a fixed FNV-1a fold — not `DefaultHasher`, whose
/// output may change across toolchains — so hashes are stable enough to
/// pin in tests and to key on-disk cache snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Feeds one delimited field (a 0 byte cannot occur in a net or type
/// name, so it is an unambiguous separator).
fn field(h: &mut u64, text: &str) {
    fnv1a(h, text.as_bytes());
    fnv1a(h, &[0]);
}

impl ContentHash {
    /// The raw 64-bit value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Parses the 16-hex-digit rendering [`Display`](fmt::Display)
    /// produces.
    pub fn parse(text: &str) -> Option<ContentHash> {
        if text.len() != 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(ContentHash)
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Sequential metadata retained by the full-scan abstraction.
///
/// The stored gate graph is purely combinational: every flip-flop's Q pin is
/// a pseudo-primary input and its D pin a pseudo-primary output. The counts
/// here reproduce the paper's Table 1 / Table 6 circuit characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanInfo {
    /// Number of scan flip-flops.
    pub flip_flops: usize,
    /// Number of scan chains the flip-flops are stitched into.
    pub scan_chains: usize,
}

/// One scan flip-flop in the full-scan abstraction: the pseudo-primary
/// input its Q pin drives and the pseudo-primary output its D pin is
/// observed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanCell {
    /// The Q-side pseudo-primary input net.
    pub ppi: NetId,
    /// The D-side pseudo-primary output net.
    pub ppo: NetId,
}

/// Where the tester observes a miscompare: a primary output pin or a scan
/// cell at a (chain, shift position) coordinate — the form real datalogs
/// report failures in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TesterCoordinate {
    /// A primary output pin.
    Po {
        /// Position in the circuit's output list.
        index: usize,
        /// The pin's net name.
        name: String,
    },
    /// A scan cell, addressed by chain and shift position.
    ScanCell {
        /// Scan chain index.
        chain: usize,
        /// Position within the chain (0 = closest to scan-out).
        position: usize,
    },
}

impl std::fmt::Display for TesterCoordinate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TesterCoordinate::Po { name, .. } => write!(f, "PO {name}"),
            TesterCoordinate::ScanCell { chain, position } => {
                write!(f, "chain {chain} cell {position}")
            }
        }
    }
}

/// A flattened, levelized gate-level circuit.
///
/// Storage is flat (offset arrays rather than per-gate vectors) so that the
/// multi-million-gate circuits of the paper's Table 6 stay cheap to build
/// and walk. Construct circuits with [`CircuitBuilder`] or by parsing the
/// [`format`](crate::format) text format.
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    library: Library,
    scan: ScanInfo,

    // Nets.
    net_driver: Vec<Option<GateId>>,
    net_names: HashMap<NetId, String>,
    nets_by_name: HashMap<String, NetId>,

    // Gates, flat.
    gate_type: Vec<TypeId>,
    gate_output: Vec<NetId>,
    gate_input_offset: Vec<u32>,
    gate_inputs: Vec<NetId>,
    gate_names: HashMap<GateId, String>,
    gates_by_name: HashMap<String, GateId>,

    // Interface.
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    scan_chains: Vec<Vec<ScanCell>>,

    // Derived.
    topo_order: Vec<GateId>,
    gate_level: Vec<u32>,
    fanout_offset: Vec<u32>,
    fanout: Vec<GateId>,
    max_level: u32,
    levels: Levels,

    // Lazy derived: built on first use, shared by clones of the value
    // they were built on.
    cones: OnceLock<ConeIndex>,
    packed_evals: OnceLock<Arc<Vec<PackedEval>>>,
}

impl Circuit {
    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Moves the circuit behind an [`Arc`](std::sync::Arc) so many
    /// diagnosis workers can borrow one immutable DUT description.
    pub fn into_shared(self) -> std::sync::Arc<Self> {
        std::sync::Arc::new(self)
    }

    /// The owned library the circuit's gates reference.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Scan metadata.
    pub fn scan_info(&self) -> ScanInfo {
        self.scan
    }

    /// Number of gate instances.
    pub fn num_gates(&self) -> usize {
        self.gate_type.len()
    }

    /// Number of nets (including primary inputs).
    pub fn num_nets(&self) -> usize {
        self.net_driver.len()
    }

    /// Primary inputs (including pseudo-primary inputs), in order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs (including pseudo-primary outputs), in order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The gate driving `net`, or `None` for primary inputs.
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        self.net_driver[net.index()]
    }

    /// The gates whose inputs are connected to `net`.
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        let i = net.index();
        let lo = self.fanout_offset[i] as usize;
        let hi = self.fanout_offset[i + 1] as usize;
        &self.fanout[lo..hi]
    }

    /// The input nets of a gate, in pin order.
    pub fn gate_inputs(&self, gate: GateId) -> &[NetId] {
        let i = gate.index();
        let lo = self.gate_input_offset[i] as usize;
        let hi = self.gate_input_offset[i + 1] as usize;
        &self.gate_inputs[lo..hi]
    }

    /// The output net of a gate.
    pub fn gate_output(&self, gate: GateId) -> NetId {
        self.gate_output[gate.index()]
    }

    /// The library type of a gate.
    pub fn gate_type_id(&self, gate: GateId) -> TypeId {
        self.gate_type[gate.index()]
    }

    /// The library type of a gate, resolved.
    pub fn gate_type(&self, gate: GateId) -> &GateType {
        self.library.gate_type(self.gate_type[gate.index()])
    }

    /// Gates in a valid topological (level) order for single-pass
    /// simulation.
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo_order
    }

    /// The logic level of a gate (primary inputs are level 0).
    pub fn gate_level(&self, gate: GateId) -> u32 {
        self.gate_level[gate.index()]
    }

    /// The largest gate level in the circuit.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// The gates grouped by logic level, for level-ordered frontier
    /// evaluation.
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// The lazily built observe-point index (see [`ConeIndex`] for the
    /// memory cost; paths that never query observe points or cone sizes
    /// never build it).
    pub fn cone_index(&self) -> &ConeIndex {
        self.cones.get_or_init(|| ConeIndex::build(self))
    }

    /// The observe-point positions (indexes into [`Circuit::outputs`])
    /// structurally reachable from `gate`'s output. Builds the cone
    /// index on first use.
    pub fn observable_outputs(&self, gate: GateId) -> ConeSet<'_> {
        self.cone_index().observable(gate)
    }

    /// Number of gates in `gate`'s transitive fanout cone (including
    /// itself). Builds the cone index on first use and walks each gate's
    /// cone once.
    pub fn cone_size(&self, gate: GateId) -> u32 {
        self.cone_index().cone_size(self, gate)
    }

    /// One compiled [`PackedEval`] per library type, indexed by
    /// [`TypeId`] position. Compiled once per circuit on first use and
    /// shared via [`Arc`] so repeated simulations (and clones of the
    /// handle) reuse the same evaluators.
    pub fn packed_evaluators(&self) -> &Arc<Vec<PackedEval>> {
        self.packed_evals.get_or_init(|| {
            Arc::new(
                self.library
                    .iter()
                    .map(|(_, t)| PackedEval::from_table(t.table()))
                    .collect(),
            )
        })
    }

    /// The printable name of a net (explicit name or `n<id>`).
    pub fn net_name(&self, net: NetId) -> String {
        self.net_names
            .get(&net)
            .cloned()
            .unwrap_or_else(|| net.to_string())
    }

    /// The printable name of a gate (explicit name or `g<id>`).
    pub fn gate_name(&self, gate: GateId) -> String {
        self.gate_names
            .get(&gate)
            .cloned()
            .unwrap_or_else(|| gate.to_string())
    }

    /// Finds a net by explicit name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets_by_name.get(name).copied()
    }

    /// Finds a gate by explicit name.
    pub fn find_gate(&self, name: &str) -> Option<GateId> {
        self.gates_by_name.get(name).copied()
    }

    /// Iterates over all gate ids.
    pub fn gates(&self) -> impl Iterator<Item = GateId> {
        (0..self.num_gates()).map(GateId::from_index)
    }

    /// Iterates over all net ids.
    pub fn nets(&self) -> impl Iterator<Item = NetId> {
        (0..self.num_nets()).map(NetId::from_index)
    }

    /// Whether `net` is a primary (or pseudo-primary) input.
    pub fn is_input(&self, net: NetId) -> bool {
        self.net_driver[net.index()].is_none()
    }

    /// The stitched scan chains (empty when the circuit carries only the
    /// aggregate [`ScanInfo`] counts).
    pub fn scan_chains(&self) -> &[Vec<ScanCell>] {
        &self.scan_chains
    }

    /// The circuit's structural [`ContentHash`] — see that type for what
    /// is covered and the stability guarantees. `O(gates + nets)` per
    /// call; callers that key caches on it should compute it once.
    pub fn content_hash(&self) -> ContentHash {
        // Ordered fold over the semantic orderings: interface pin order
        // and scan-chain stitching.
        let mut ordered = FNV_OFFSET;
        for &net in &self.inputs {
            field(&mut ordered, "i");
            field(&mut ordered, &self.net_name(net));
        }
        for &net in &self.outputs {
            field(&mut ordered, "o");
            field(&mut ordered, &self.net_name(net));
        }
        for chain in &self.scan_chains {
            field(&mut ordered, "c");
            for cell in chain {
                field(&mut ordered, &self.net_name(cell.ppi));
                field(&mut ordered, &self.net_name(cell.ppo));
            }
        }
        // Commutative fold over the gate population: each gate record is
        // hashed on its own and the records are summed, so declaring the
        // same gates in a different order changes nothing.
        let mut gates = 0u64;
        for gate in self.gates() {
            let mut g = FNV_OFFSET;
            field(&mut g, self.gate_type(gate).name());
            field(&mut g, &self.net_name(self.gate_output(gate)));
            for &input in self.gate_inputs(gate) {
                field(&mut g, &self.net_name(input));
            }
            gates = gates.wrapping_add(g);
        }
        let mut h = ordered;
        fnv1a(&mut h, &gates.to_le_bytes());
        fnv1a(&mut h, &(self.num_gates() as u64).to_le_bytes());
        ContentHash(h)
    }

    /// The tester coordinate of an observe point: a scan (chain, position)
    /// when the output is a stitched pseudo-primary output, the PO pin
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `output_index` is out of range.
    pub fn tester_coordinate(&self, output_index: usize) -> TesterCoordinate {
        let net = self.outputs[output_index];
        for (chain, cells) in self.scan_chains.iter().enumerate() {
            if let Some(position) = cells.iter().position(|c| c.ppo == net) {
                return TesterCoordinate::ScanCell { chain, position };
            }
        }
        TesterCoordinate::Po {
            index: output_index,
            name: self.net_name(net),
        }
    }
}

/// Incremental builder for [`Circuit`]s.
///
/// See the [crate-level example](crate) for typical usage.
#[derive(Debug)]
pub struct CircuitBuilder<'lib> {
    name: String,
    library: &'lib Library,
    scan: ScanInfo,

    net_driver: Vec<Option<GateId>>,
    net_names: HashMap<NetId, String>,
    nets_by_name: HashMap<String, NetId>,

    gate_type: Vec<TypeId>,
    gate_output: Vec<NetId>,
    gate_input_offset: Vec<u32>,
    gate_inputs: Vec<NetId>,
    gate_names: HashMap<GateId, String>,
    gates_by_name: HashMap<String, GateId>,

    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    scan_chains: Vec<Vec<ScanCell>>,
}

impl<'lib> CircuitBuilder<'lib> {
    /// Starts a new circuit using gate types from `library`.
    pub fn new(name: impl Into<String>, library: &'lib Library) -> Self {
        CircuitBuilder {
            name: name.into(),
            library,
            scan: ScanInfo::default(),
            net_driver: Vec::new(),
            net_names: HashMap::new(),
            nets_by_name: HashMap::new(),
            gate_type: Vec::new(),
            gate_output: Vec::new(),
            gate_input_offset: vec![0],
            gate_inputs: Vec::new(),
            gate_names: HashMap::new(),
            gates_by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            scan_chains: Vec::new(),
        }
    }

    /// Records scan metadata for the circuit.
    pub fn set_scan_info(&mut self, scan: ScanInfo) {
        self.scan = scan;
    }

    /// Records the stitched scan chains (also updates the aggregate
    /// counts).
    pub fn set_scan_chains(&mut self, chains: Vec<Vec<ScanCell>>) {
        self.scan = ScanInfo {
            flip_flops: chains.iter().map(Vec::len).sum(),
            scan_chains: chains.len(),
        };
        self.scan_chains = chains;
    }

    fn new_net(&mut self) -> NetId {
        let id = NetId::from_index(self.net_driver.len());
        self.net_driver.push(None);
        id
    }

    fn name_net(&mut self, net: NetId, name: &str) {
        self.net_names.insert(net, name.to_owned());
        self.nets_by_name.insert(name.to_owned(), net);
    }

    /// Adds a named primary (or pseudo-primary) input net.
    pub fn add_input(&mut self, name: &str) -> NetId {
        let id = self.intern_net(name);
        self.inputs.push(id);
        id
    }

    /// Returns the net with the given name, creating an (as yet undriven)
    /// placeholder if necessary. Used by the text-format parser, which may
    /// reference nets before their drivers are declared.
    pub fn intern_net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.nets_by_name.get(name) {
            return id;
        }
        let id = self.new_net();
        self.name_net(id, name);
        id
    }

    /// Instantiates a gate with a fresh anonymous output net.
    ///
    /// # Errors
    ///
    /// Returns an error when the gate type is unknown or the input count is
    /// wrong.
    pub fn add_gate(
        &mut self,
        type_name: &str,
        input_nets: &[NetId],
        instance_name: Option<&str>,
    ) -> Result<NetId, NetlistError> {
        let output = self.new_net();
        self.add_gate_driving(type_name, input_nets, output, instance_name)?;
        Ok(output)
    }

    /// Instantiates a gate that drives an existing net.
    ///
    /// # Errors
    ///
    /// Returns an error when the gate type is unknown, the input count is
    /// wrong, or `output` already has a driver.
    pub fn add_gate_driving(
        &mut self,
        type_name: &str,
        input_nets: &[NetId],
        output: NetId,
        instance_name: Option<&str>,
    ) -> Result<GateId, NetlistError> {
        let type_id = self
            .library
            .find(type_name)
            .ok_or_else(|| NetlistError::UnknownGateType(type_name.to_owned()))?;
        let gate_type = self.library.gate_type(type_id);
        if gate_type.num_inputs() != input_nets.len() {
            return Err(NetlistError::WrongPinCount {
                gate_type: type_name.to_owned(),
                expected: gate_type.num_inputs(),
                got: input_nets.len(),
            });
        }
        if self.net_driver[output.index()].is_some() {
            return Err(NetlistError::MultipleDrivers(
                self.net_names
                    .get(&output)
                    .cloned()
                    .unwrap_or_else(|| output.to_string()),
            ));
        }
        let gate = GateId::from_index(self.gate_type.len());
        self.net_driver[output.index()] = Some(gate);
        self.gate_type.push(type_id);
        self.gate_output.push(output);
        self.gate_inputs.extend_from_slice(input_nets);
        self.gate_input_offset.push(self.gate_inputs.len() as u32);
        if let Some(name) = instance_name {
            self.gate_names.insert(gate, name.to_owned());
            self.gates_by_name.insert(name.to_owned(), gate);
        }
        Ok(gate)
    }

    /// Marks a net as a primary (or pseudo-primary) output, giving it a
    /// name.
    pub fn mark_output(&mut self, net: NetId, name: &str) {
        if !self.nets_by_name.contains_key(name) {
            self.name_net(net, name);
        }
        self.outputs.push(net);
    }

    /// Marks a net as an output without naming it.
    pub fn mark_output_anonymous(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Number of gates added so far.
    pub fn num_gates(&self) -> usize {
        self.gate_type.len()
    }

    /// Number of nets created so far.
    pub fn num_nets(&self) -> usize {
        self.net_driver.len()
    }

    /// Validates the graph, levelizes it and produces the [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndrivenNet`] for nets that are used but
    /// neither driven nor inputs, and [`NetlistError::CombinationalCycle`]
    /// when the gate graph is cyclic.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        let num_gates = self.gate_type.len();
        let num_nets = self.net_driver.len();
        let input_set: Vec<bool> = {
            let mut v = vec![false; num_nets];
            for &i in &self.inputs {
                v[i.index()] = true;
            }
            v
        };

        // Every used net must be driven or an input.
        for &net in self.gate_inputs.iter().chain(self.outputs.iter()) {
            if self.net_driver[net.index()].is_none() && !input_set[net.index()] {
                return Err(NetlistError::UndrivenNet(
                    self.net_names
                        .get(&net)
                        .cloned()
                        .unwrap_or_else(|| net.to_string()),
                ));
            }
        }

        // Fanout (net -> consuming gates), counting-sort style.
        let mut fanout_offset = vec![0u32; num_nets + 1];
        for &net in &self.gate_inputs {
            fanout_offset[net.index() + 1] += 1;
        }
        for i in 0..num_nets {
            fanout_offset[i + 1] += fanout_offset[i];
        }
        let mut cursor = fanout_offset.clone();
        let mut fanout = vec![GateId::from_index(0); self.gate_inputs.len()];
        for g in 0..num_gates {
            let lo = self.gate_input_offset[g] as usize;
            let hi = self.gate_input_offset[g + 1] as usize;
            for &net in &self.gate_inputs[lo..hi] {
                let slot = cursor[net.index()];
                fanout[slot as usize] = GateId::from_index(g);
                cursor[net.index()] = slot + 1;
            }
        }

        // Kahn levelization over gates.
        let mut pending: Vec<u32> = (0..num_gates)
            .map(|g| {
                let lo = self.gate_input_offset[g] as usize;
                let hi = self.gate_input_offset[g + 1] as usize;
                self.gate_inputs[lo..hi]
                    .iter()
                    .filter(|n| self.net_driver[n.index()].is_some())
                    .count() as u32
            })
            .collect();
        let mut gate_level = vec![0u32; num_gates];
        let mut topo_order = Vec::with_capacity(num_gates);
        let mut queue: Vec<GateId> = (0..num_gates)
            .filter(|&g| pending[g] == 0)
            .map(GateId::from_index)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let gate = queue[head];
            head += 1;
            topo_order.push(gate);
            let out = self.gate_output[gate.index()];
            let level = gate_level[gate.index()];
            let lo = fanout_offset[out.index()] as usize;
            let hi = fanout_offset[out.index() + 1] as usize;
            for &succ in &fanout[lo..hi] {
                let s = succ.index();
                gate_level[s] = gate_level[s].max(level + 1);
                pending[s] -= 1;
                if pending[s] == 0 {
                    queue.push(succ);
                }
            }
        }
        if topo_order.len() != num_gates {
            // Find one gate on a cycle for the error message.
            let stuck = (0..num_gates)
                .find(|&g| pending[g] > 0)
                .expect("cycle implies a stuck gate");
            let net = self.gate_output[stuck];
            return Err(NetlistError::CombinationalCycle(
                self.net_names
                    .get(&net)
                    .cloned()
                    .unwrap_or_else(|| net.to_string()),
            ));
        }
        let max_level = gate_level.iter().copied().max().unwrap_or(0);
        let levels = Levels::build(&gate_level, max_level);

        Ok(Circuit {
            name: self.name,
            library: self.library.clone(),
            scan: self.scan,
            net_driver: self.net_driver,
            net_names: self.net_names,
            nets_by_name: self.nets_by_name,
            gate_type: self.gate_type,
            gate_output: self.gate_output,
            gate_input_offset: self.gate_input_offset,
            gate_inputs: self.gate_inputs,
            gate_names: self.gate_names,
            gates_by_name: self.gates_by_name,
            inputs: self.inputs,
            outputs: self.outputs,
            scan_chains: self.scan_chains,
            topo_order,
            gate_level,
            fanout_offset,
            fanout,
            max_level,
            levels,
            cones: OnceLock::new(),
            packed_evals: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icd_logic::TruthTable;

    fn small_library() -> Library {
        let mut lib = Library::new();
        lib.insert(GateType::new("INV", ["A"], TruthTable::from_fn(1, |b| !b[0])).unwrap())
            .unwrap();
        lib.insert(
            GateType::new(
                "NAND2",
                ["A", "B"],
                TruthTable::from_fn(2, |b| !(b[0] & b[1])),
            )
            .unwrap(),
        )
        .unwrap();
        lib
    }

    #[test]
    fn build_two_gate_chain() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("chain", &lib);
        let a = b.add_input("a");
        let c = b.add_input("c");
        let x = b.add_gate("NAND2", &[a, c], Some("U1")).unwrap();
        let y = b.add_gate("INV", &[x], Some("U2")).unwrap();
        b.mark_output(y, "y");
        let circuit = b.finish().unwrap();

        assert_eq!(circuit.num_gates(), 2);
        assert_eq!(circuit.inputs().len(), 2);
        assert_eq!(circuit.outputs().len(), 1);
        let u1 = circuit.find_gate("U1").unwrap();
        let u2 = circuit.find_gate("U2").unwrap();
        assert_eq!(circuit.gate_level(u1), 0);
        assert_eq!(circuit.gate_level(u2), 1);
        assert_eq!(circuit.fanout(circuit.gate_output(u1)), &[u2]);
        assert_eq!(circuit.topo_order(), &[u1, u2]);
        assert_eq!(circuit.gate_type(u2).name(), "INV");
    }

    #[test]
    fn packed_evaluators_are_compiled_once_per_circuit() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("nand", &lib);
        let a = b.add_input("a");
        let c = b.add_input("c");
        let y = b.add_gate("NAND2", &[a, c], Some("U1")).unwrap();
        b.mark_output(y, "y");
        let circuit = b.finish().unwrap();
        let first = Arc::clone(circuit.packed_evaluators());
        // Still the same compiled evaluators, not fresh per-call copies,
        // also through a clone of the handle.
        assert!(Arc::ptr_eq(&first, circuit.packed_evaluators()));
        assert!(Arc::ptr_eq(&first, circuit.clone().packed_evaluators()));
        assert_eq!(first.len(), circuit.library().len());
    }

    #[test]
    fn wrong_pin_count_rejected() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("bad", &lib);
        let a = b.add_input("a");
        assert!(matches!(
            b.add_gate("NAND2", &[a], None),
            Err(NetlistError::WrongPinCount { .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("bad", &lib);
        let a = b.add_input("a");
        assert!(matches!(
            b.add_gate("XOR9", &[a], None),
            Err(NetlistError::UnknownGateType(_))
        ));
    }

    #[test]
    fn undriven_net_detected() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("bad", &lib);
        let ghost = b.intern_net("ghost");
        let a = b.add_input("a");
        let y = b.add_gate("NAND2", &[a, ghost], None).unwrap();
        b.mark_output(y, "y");
        assert!(matches!(
            b.finish(),
            Err(NetlistError::UndrivenNet(name)) if name == "ghost"
        ));
    }

    #[test]
    fn multiple_drivers_detected() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("bad", &lib);
        let a = b.add_input("a");
        let y = b.add_gate("INV", &[a], None).unwrap();
        assert!(matches!(
            b.add_gate_driving("INV", &[a], y, None),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn cycle_detected() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("bad", &lib);
        let a = b.add_input("a");
        let loop_net = b.intern_net("loop");
        let x = b.add_gate("NAND2", &[a, loop_net], None).unwrap();
        b.add_gate_driving("INV", &[x], loop_net, None).unwrap();
        b.mark_output(x, "y");
        assert!(matches!(
            b.finish(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn content_hash_is_gate_order_independent() {
        let lib = small_library();
        // Same structure, gates declared in opposite orders. All nets are
        // named so renumbering cannot leak into the hash.
        let build = |swapped: bool| {
            let mut b = CircuitBuilder::new("h", &lib);
            let a = b.add_input("a");
            let c = b.add_input("c");
            let x = b.intern_net("x");
            let y = b.intern_net("y");
            if swapped {
                b.add_gate_driving("INV", &[x], y, None).unwrap();
                b.add_gate_driving("NAND2", &[a, c], x, None).unwrap();
            } else {
                b.add_gate_driving("NAND2", &[a, c], x, None).unwrap();
                b.add_gate_driving("INV", &[x], y, None).unwrap();
            }
            b.mark_output(y, "y");
            b.finish().unwrap()
        };
        assert_eq!(build(false).content_hash(), build(true).content_hash());
    }

    #[test]
    fn content_hash_sees_structural_changes_but_not_the_name() {
        let lib = small_library();
        let build = |name: &str, gate: &str, out: &str| {
            let mut b = CircuitBuilder::new(name, &lib);
            let a = b.add_input("a");
            let y = if gate == "INV" {
                b.add_gate("INV", &[a], None).unwrap()
            } else {
                let c = b.intern_net("a");
                b.add_gate("NAND2", &[a, c], None).unwrap()
            };
            b.mark_output(y, out);
            b.finish().unwrap()
        };
        let base = build("one", "INV", "y").content_hash();
        assert_eq!(base, build("two", "INV", "y").content_hash());
        assert_ne!(base, build("one", "NAND2", "y").content_hash());
        assert_ne!(base, build("one", "INV", "z").content_hash());
    }

    #[test]
    fn content_hash_pins_known_values() {
        // Pinned: a change here means every on-disk snapshot keyed by a
        // content hash silently goes stale. Bump deliberately.
        let lib = small_library();
        let mut b = CircuitBuilder::new("chain", &lib);
        let a = b.add_input("a");
        let c = b.add_input("c");
        let x = b.add_gate("NAND2", &[a, c], Some("U1")).unwrap();
        let y = b.add_gate("INV", &[x], Some("U2")).unwrap();
        b.mark_output(y, "y");
        let circuit = b.finish().unwrap();
        assert_eq!(circuit.content_hash().to_string(), "ba424882cbb3563a");

        let generated =
            crate::generator::generate(&crate::generator::circuit_a().scaled_down(4), &lib)
                .unwrap();
        assert_eq!(generated.content_hash().to_string(), "066c9881c41fe856");
    }

    #[test]
    fn content_hash_display_roundtrips_through_parse() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("n", &lib);
        let a = b.add_input("a");
        let y = b.add_gate("INV", &[a], None).unwrap();
        b.mark_output(y, "y");
        let hash = b.finish().unwrap().content_hash();
        let text = hash.to_string();
        assert_eq!(text.len(), 16);
        assert_eq!(ContentHash::parse(&text), Some(hash));
        assert_eq!(ContentHash::parse("xyz"), None);
        assert_eq!(ContentHash::parse("00"), None);
    }

    #[test]
    fn derived_names_are_stable() {
        let lib = small_library();
        let mut b = CircuitBuilder::new("n", &lib);
        let a = b.add_input("a");
        let y = b.add_gate("INV", &[a], None).unwrap();
        b.mark_output_anonymous(y);
        let c = b.finish().unwrap();
        assert_eq!(c.net_name(a), "a");
        assert_eq!(c.net_name(y), "n1");
        assert_eq!(c.gate_name(GateId::from_index(0)), "g0");
    }
}
