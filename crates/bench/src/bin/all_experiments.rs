//! Runs every experiment in sequence (the EXPERIMENTS.md source). Pass
//! `--full` for paper-scale sizes.
fn main() {
    let scale = icd_bench::RunScale::from_args();
    let mut failed = false;
    let mut run = |name: &str, result: Result<String, icd_engine::flow::FlowError>| match result {
        Ok(s) => println!("{s}"),
        Err(e) => {
            eprintln!("{name} failed: {e}");
            failed = true;
        }
    };
    run("table1", icd_bench::tables::table1(scale));
    run("table2", icd_bench::tables::table2());
    run("table3", icd_bench::tables::table3());
    run("table4", icd_bench::tables::table4());
    run("table5", icd_bench::tables::table5(scale).map(|(s, _)| s));
    run("table6", icd_bench::tables::table6(scale));
    run("table7", icd_bench::silicon::table7(scale).map(|(s, _)| s));
    run(
        "circuit_m",
        icd_bench::silicon::circuit_m_report(scale).map(|(s, _)| s),
    );
    run("circuit_c", icd_bench::silicon::circuit_c_report(scale));
    run("fig1", icd_bench::figures::fig1_defect_classes());
    run("fig4", icd_bench::figures::fig4_taxonomy());
    run("fig6", icd_bench::figures::fig6_walkthrough());
    if failed {
        std::process::exit(1);
    }
}
