use std::collections::HashMap;

use icd_netlist::{GateType, Library};
use icd_switch::CellNetlist;

use crate::{aoi, basic, complex};

/// The twelve cells of the paper's Table 5 extensive experiment, in table
/// order.
pub const TABLE5_CELL_NAMES: [&str; 12] = [
    "AO7SVTX1",
    "AO7NHVTX1",
    "NR3ASVTX1",
    "AO6CHVTX4",
    "AO8DHVTX1",
    "AO5NHVTX1",
    "AO9SVTX1",
    "AN2BHVTX8",
    "MUX21HVTX6",
    "ND4ABCHVTX8",
    "EOHVTX6",
    "OR4ABCDHVTX4",
];

/// A standard cell: the transistor netlist plus the reference boolean
/// function it is supposed to implement.
///
/// The logic view handed to gate-level tools ([`StdCell::to_gate_type`]) is
/// *derived* from the transistor netlist by exhaustive switch-level
/// simulation, so the two abstraction levels cannot drift apart; the
/// reference function exists to validate the derivation in tests
/// ([`StdCell::assert_consistent`]).
#[derive(Debug, Clone)]
pub struct StdCell {
    netlist: CellNetlist,
    reference: fn(&[bool]) -> bool,
}

impl StdCell {
    pub(crate) fn new(netlist: CellNetlist, reference: fn(&[bool]) -> bool) -> Self {
        StdCell { netlist, reference }
    }

    /// The cell name.
    pub fn name(&self) -> &str {
        self.netlist.name()
    }

    /// The transistor netlist.
    pub fn netlist(&self) -> &CellNetlist {
        &self.netlist
    }

    /// Derives the gate-level view by exhaustive switch-level simulation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist cannot be evaluated — impossible for the
    /// built-in cells, which are validated by the test suite.
    pub fn to_gate_type(&self) -> GateType {
        let table = self
            .netlist
            .truth_table()
            .expect("built-in cells always evaluate");
        let input_names: Vec<String> = self
            .netlist
            .inputs()
            .iter()
            .map(|&n| self.netlist.net_name(n).to_owned())
            .collect();
        GateType::new(self.name(), input_names, table).expect("pin count matches table")
    }

    /// Asserts the switch-level truth table equals the reference function
    /// on every input combination.
    ///
    /// # Panics
    ///
    /// Panics (with the offending input vector) on any mismatch.
    pub fn assert_consistent(&self) {
        let table = self
            .netlist
            .truth_table()
            .expect("cell netlist must evaluate");
        let n = self.netlist.num_inputs();
        let mut bits = vec![false; n];
        for combo in 0..(1usize << n) {
            for (k, b) in bits.iter_mut().enumerate() {
                *b = (combo >> k) & 1 == 1;
            }
            let want = icd_logic::Lv::from((self.reference)(&bits));
            let got = table.eval_bits(&bits);
            assert_eq!(
                got,
                want,
                "cell {} disagrees with its reference on inputs {:?}",
                self.name(),
                bits
            );
        }
    }
}

/// The reconstructed standard-cell library.
///
/// ```
/// use icd_cells::{CellLibrary, TABLE5_CELL_NAMES};
///
/// let lib = CellLibrary::standard();
/// for name in TABLE5_CELL_NAMES {
///     assert!(lib.get(name).is_some(), "missing {name}");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    cells: Vec<StdCell>,
    by_name: HashMap<String, usize>,
}

impl CellLibrary {
    /// Builds the full standard library (22 cells).
    pub fn standard() -> Self {
        let cells = vec![
            basic::invhvtx1(),
            basic::bfhvtx2(),
            basic::nd2hvtx1(),
            basic::nr2hvtx1(),
            basic::nd3hvtx1(),
            basic::nd4hvtx1(),
            basic::nr4hvtx1(),
            aoi::aoi22hvtx2(),
            aoi::oai22hvtx1(),
            aoi::ao7svtx1(),
            aoi::ao7nhvtx1(),
            aoi::ao7hvtx1(),
            aoi::nr3asvtx1(),
            aoi::ao6chvtx4(),
            aoi::ao5nhvtx1(),
            aoi::ao8dhvtx1(),
            aoi::ao9svtx1(),
            complex::an2bhvtx8(),
            complex::mux21hvtx6(),
            complex::nd4abchvtx8(),
            complex::eohvtx6(),
            complex::or4abcdhvtx4(),
        ];
        let by_name = cells
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name().to_owned(), i))
            .collect();
        CellLibrary { cells, by_name }
    }

    /// Moves the library behind an [`Arc`](std::sync::Arc) — the batch
    /// engine's shared-artifact form.
    pub fn into_shared(self) -> std::sync::Arc<Self> {
        std::sync::Arc::new(self)
    }

    /// Looks a cell up by name.
    pub fn get(&self, name: &str) -> Option<&StdCell> {
        self.by_name.get(name).map(|&i| &self.cells[i])
    }

    /// Removes a cell by name, returning whether it was present.
    ///
    /// The diagnosis flow treats a suspected gate whose cell is missing
    /// from the library as a per-gate degradation, not a fatal error;
    /// this is the hook robustness tests use to produce that situation.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(i) = self.by_name.remove(name) else {
            return false;
        };
        self.cells.remove(i);
        self.by_name = self
            .cells
            .iter()
            .enumerate()
            .map(|(k, c)| (c.name().to_owned(), k))
            .collect();
        true
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over the cells.
    pub fn iter(&self) -> std::slice::Iter<'_, StdCell> {
        self.cells.iter()
    }

    /// Builds the gate-level [`Library`] used by netlist construction,
    /// simulation, ATPG and inter-cell diagnosis.
    ///
    /// # Panics
    ///
    /// Panics if two cells share a name — impossible for the built-in set.
    pub fn logic_library(&self) -> Library {
        let mut lib = Library::new();
        for cell in &self.cells {
            lib.insert(cell.to_gate_type())
                .expect("built-in cell names are unique");
        }
        lib
    }
}

impl Default for CellLibrary {
    fn default() -> Self {
        CellLibrary::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_all_table5_cells() {
        let lib = CellLibrary::standard();
        for name in TABLE5_CELL_NAMES {
            assert!(lib.get(name).is_some(), "missing {name}");
        }
        assert_eq!(lib.len(), 22);
    }

    #[test]
    fn every_cell_is_consistent_with_its_reference() {
        for cell in CellLibrary::standard().iter() {
            cell.assert_consistent();
        }
    }

    #[test]
    fn logic_library_mirrors_cells() {
        let cells = CellLibrary::standard();
        let logic = cells.logic_library();
        assert_eq!(logic.len(), cells.len());
        for cell in cells.iter() {
            let id = logic.find(cell.name()).expect("present");
            let gt = logic.gate_type(id);
            assert_eq!(gt.num_inputs(), cell.netlist().num_inputs());
        }
    }

    #[test]
    fn derived_tables_are_fully_specified() {
        // Fault-free static CMOS cells never float or fight.
        for cell in CellLibrary::standard().iter() {
            let t = cell.netlist().truth_table().unwrap();
            assert!(
                t.entries().iter().all(|v| v.is_known()),
                "cell {} has U entries",
                cell.name()
            );
        }
    }

    #[test]
    fn table5_cells_span_the_paper_complexity_range() {
        let lib = CellLibrary::standard();
        let counts: Vec<usize> = TABLE5_CELL_NAMES
            .iter()
            .map(|n| lib.get(n).unwrap().netlist().num_transistors())
            .collect();
        assert_eq!(*counts.iter().min().unwrap(), 6);
        assert!(*counts.iter().max().unwrap() >= 14);
    }
}
