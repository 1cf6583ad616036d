//! `unsafe` stays confined to the two crates that need it. Every other
//! crate root carries `#![forbid(unsafe_code)]`; `hqnn-alloc` implements the
//! unsafe `GlobalAlloc` trait, and `hqnn-runtime`'s `simd` calls the AVX2
//! copy of a kernel. The `forbid-unsafe` lint accepts an escape with a
//! reason, so this test is what makes a third crate without the attribute
//! fail the tier-1 suite instead of passing with one more `lint:allow`.

use std::fs;
use std::path::Path;

use hqnn_lint::lex;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels below the workspace root")
}

/// Whether `source` has the token sequence `#![forbid(unsafe_code)]`
/// outside comments and string literals.
fn forbids_unsafe(source: &str) -> bool {
    let toks = lex(source).tokens;
    let want = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    toks.windows(want.len())
        .any(|w| w.iter().zip(want).all(|(t, p)| t.text == p))
}

#[test]
fn only_alloc_and_runtime_roots_lack_forbid_unsafe_code() {
    let crates = workspace_root().join("crates");
    let mut roots = 0;
    let mut lacking: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let lib = dir.join("src").join("lib.rs");
        if !lib.is_file() {
            continue;
        }
        roots += 1;
        let source = fs::read_to_string(&lib).expect("read crate root");
        if !forbids_unsafe(&source) {
            let name = dir.file_name().expect("crate dir name");
            lacking.push(name.to_string_lossy().into_owned());
        }
    }
    lacking.sort();
    assert!(roots > 10, "suspiciously few crate roots ({roots})");
    assert_eq!(
        lacking,
        ["alloc", "runtime"],
        "crate roots without #![forbid(unsafe_code)]"
    );
}

#[test]
fn the_attribute_is_found_only_as_code() {
    assert!(forbids_unsafe("#![forbid(unsafe_code)]\nfn f() {}\n"));
    assert!(!forbids_unsafe("// #![forbid(unsafe_code)]\nfn f() {}\n"));
    assert!(!forbids_unsafe("#![deny(unsafe_code)]\nfn f() {}\n"));
    assert!(!forbids_unsafe(
        "const S: &str = \"#![forbid(unsafe_code)]\";\n"
    ));
}
