//! Byte-for-byte golden outputs of `simc synth`.
//!
//! `tests/golden/synth/` holds the stdout of `simc synth benchmarks/<row>`
//! for every Table 1 row, plain (`<row>.txt`), with `--rs`
//! (`<row>.rs.txt`) and with `--share` (`<row>.share.txt`). Speed work on
//! the search must leave every equation unchanged; a deliberate change of
//! results regenerates these files in the same change, e.g.
//! `simc synth benchmarks/ganesh_8 --rs > tests/golden/synth/ganesh_8.rs.txt`.

use std::path::PathBuf;
use std::process::Command;

/// File suffix and `simc synth` flag of each mode.
const MODES: [(&str, Option<&str>); 3] =
    [("", None), (".rs", Some("--rs")), (".share", Some("--share"))];

#[test]
fn synth_outputs_match_the_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/synth");
    let mut mismatches = Vec::new();
    for b in simc::benchmarks::suite::all() {
        for (suffix, flag) in MODES {
            let path = dir.join(format!("{}{suffix}.txt", b.name));
            let golden = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("golden file {} missing: {e}", path.display()));
            let mut cmd = Command::new(env!("CARGO_BIN_EXE_simc"));
            cmd.args(["synth", &format!("benchmarks/{}", b.name)]).args(flag);
            let out = cmd.output().expect("simc runs");
            assert!(out.status.success(), "{}{suffix}: exit {}", b.name, out.status);
            if out.stdout != golden {
                mismatches.push(format!(
                    "{}:\n--- golden\n{}--- got\n{}",
                    path.display(),
                    String::from_utf8_lossy(&golden),
                    String::from_utf8_lossy(&out.stdout)
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "synth output changed:\n{}", mismatches.join("\n"));
}
