//! Golden-report regression: Fig. 1's report bytes must be
//! byte-identical to the fixture produced before the serde_json →
//! in-tree writer swap. Guards the writer's pretty layout (2-space
//! indent, `": "` separators) and float formatting, and the determinism
//! of the trial pipeline behind the rows.

use h2priv_core::experiments::find;

#[test]
fn fig1_report_matches_golden_fixture_byte_for_byte() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/golden_fig1.json"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden fixture present");
    let rendered = find("fig1").unwrap().run(2, 1).report;
    assert_eq!(
        rendered, golden,
        "report output drifted from the golden fixture"
    );
}
