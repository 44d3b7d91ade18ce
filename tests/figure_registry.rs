//! The figure registry and the committed artifacts must name the same
//! set: every registered figure has a committed `results/<name>.txt`, and
//! every committed `results/*.txt` has a registry entry. Adding or
//! renaming a figure in only one place fails here.

use mpichgq_bench::figures::FIGURES;
use std::collections::BTreeSet;

#[test]
fn registry_names_match_the_committed_results() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let committed: BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("results/ is committed")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let registered: Vec<String> = FIGURES.iter().map(|f| f.name.to_owned()).collect();
    assert_eq!(
        registered.iter().cloned().collect::<BTreeSet<_>>(),
        committed,
        "registry names (left) vs committed results/*.txt stems (right)"
    );
    assert_eq!(
        registered.len(),
        committed.len(),
        "duplicate registry names"
    );
}
