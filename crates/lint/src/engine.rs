//! Workspace walker: discovers crates, lexes every source file under
//! `crates/*/src`, runs the rule set, and renders reports.
//!
//! Only `src/` subtrees are scanned — `tests/`, `benches/`, and `examples/`
//! are integration/test code where the invariants (panic hygiene,
//! determinism) do not apply, and scanning them would also pull the lint
//! crate's own violation fixtures into the workspace report. `vendor/` is
//! never touched: those are vendored third-party stubs we do not own.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, TokKind};
use crate::rules::{check_file, is_env_name, FileCtx, Finding, REGISTRY_FILE};

/// Result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by file then line.
    pub findings: Vec<Finding>,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Crates visited, in scan order.
    pub crates: Vec<String>,
}

impl Report {
    /// `true` when the workspace is clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report (one line per finding).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "{} finding(s) in {} file(s) across {} crate(s)\n",
            self.findings.len(),
            self.files_scanned,
            self.crates.len()
        ));
        out
    }

    /// Renders the report as JSON for machine consumption (CI annotations).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            ));
        }
        out.push_str(&format!(
            "],\"files_scanned\":{},\"crates\":[",
            self.files_scanned
        ));
        for (i, c) in self.crates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(c));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string as a JSON string literal (zero-dependency writer).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints every workspace crate under `root/crates`.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let registry = load_registry(root)?;
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("src").is_dir())
        .collect();
    crate_dirs.sort();

    let mut report = Report::default();
    for crate_dir in &crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        report.crates.push(crate_name.clone());
        let src = crate_dir.join("src");
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in &files {
            let source = fs::read_to_string(file)?;
            let rel_path = rel(root, file);
            let in_bin_dir = file
                .strip_prefix(&src)
                .ok()
                .and_then(|p| p.components().next())
                .is_some_and(|c| c.as_os_str() == "bin");
            let ctx = FileCtx {
                crate_name: &crate_name,
                rel_path: &rel_path,
                is_bin: in_bin_dir || file.file_name().is_some_and(|n| n == "main.rs"),
                is_crate_root: rel_path == format!("crates/{crate_name}/src/lib.rs"),
                registry: &registry,
            };
            let lexed = lex(&source);
            check_file(&lexed, &ctx, &mut report.findings);
            report.files_scanned += 1;
        }
    }
    sort_findings(&mut report.findings);
    Ok(report)
}

/// Canonical report order: (file, line, rule). The JSON artifact must diff
/// cleanly across runners, so the order cannot depend on filesystem walk
/// order or rule execution order.
pub fn sort_findings(findings: &mut [Finding]) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
}

/// Lints a single file as if it belonged to `crate_name` — used by the
/// fixture tests to exercise rules on files outside the workspace layout.
pub fn lint_file(
    path: &Path,
    crate_name: &str,
    is_bin: bool,
    is_crate_root: bool,
    registry: &[String],
) -> io::Result<Vec<Finding>> {
    let source = fs::read_to_string(path)?;
    let rel_path = path.to_string_lossy().replace('\\', "/");
    let ctx = FileCtx {
        crate_name,
        rel_path: &rel_path,
        is_bin,
        is_crate_root,
        registry,
    };
    let mut out = Vec::new();
    check_file(&lex(&source), &ctx, &mut out);
    Ok(out)
}

/// Loads the registered HQNN_* names by lexing the registry file and
/// collecting its non-test string literals. Test tokens are excluded so the
/// registry's own unit tests (which mention deliberately-bogus names) do not
/// register them.
pub fn load_registry(root: &Path) -> io::Result<Vec<String>> {
    let path = root.join(REGISTRY_FILE);
    let source = fs::read_to_string(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("registry file {} unreadable: {e}", path.display()),
        )
    })?;
    let lexed = lex(&source);
    let mut names: Vec<String> = lexed
        .tokens
        .iter()
        .filter(|t| !t.in_test && t.kind == TokKind::Str && is_env_name(&t.text))
        .map(|t| t.text.clone())
        .collect();
    names.sort();
    // A duplicate entry is a registry bug, not noise: the did-you-mean
    // suggestions would happily point at a shadowed copy while the real one
    // drifts, so fail loudly instead of deduping in silence.
    if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "registry file {REGISTRY_FILE} lists `{}` more than once; keep exactly one entry per variable",
                dup[0]
            ),
        ));
    }
    Ok(names)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_str("plain"), "\"plain\"");
    }

    #[test]
    fn json_report_shape() {
        let mut r = Report {
            files_scanned: 2,
            ..Report::default()
        };
        r.crates.push("qsim".to_string());
        r.findings.push(Finding {
            file: "crates/qsim/src/x.rs".to_string(),
            line: 7,
            rule: "panic",
            message: "msg with \"quotes\"".to_string(),
        });
        let json = r.render_json();
        assert!(json.starts_with("{\"findings\":[{\"file\":"));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.ends_with("\"crates\":[\"qsim\"]}"));
    }

    #[test]
    fn findings_sort_by_file_line_rule() {
        let f = |file: &str, line: u32, rule: &'static str| Finding {
            file: file.to_string(),
            line,
            rule,
            message: String::new(),
        };
        // Deliberately shuffled, including two rules on one line — the CI
        // artifact order must be (file, line, rule), not walk order.
        let mut findings = vec![
            f("b.rs", 1, "panic"),
            f("a.rs", 9, "wall-clock"),
            f("a.rs", 9, "panic"),
            f("a.rs", 2, "span-naming"),
        ];
        sort_findings(&mut findings);
        let order: Vec<(&str, u32, &str)> = findings
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.rule))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 2, "span-naming"),
                ("a.rs", 9, "panic"),
                ("a.rs", 9, "wall-clock"),
                ("b.rs", 1, "panic"),
            ]
        );
    }

    #[test]
    fn duplicate_registry_entries_are_a_loud_error() {
        let dir = std::env::temp_dir().join(format!(
            "hqnn_lint_dup_registry_{}_{}",
            std::process::id(),
            line!()
        ));
        let reg_dir = dir.join("crates/telemetry/src");
        fs::create_dir_all(&reg_dir).expect("mkdir");
        fs::write(
            reg_dir.join("env.rs"),
            "pub const A: &str = \"HQNN_LOG\";\npub const B: &str = \"HQNN_LOG\";\n",
        )
        .expect("write");
        let err = load_registry(&dir).expect_err("duplicates must not load");
        assert!(
            err.to_string().contains("HQNN_LOG") && err.to_string().contains("more than once"),
            "error should name the duplicate: {err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn text_report_shape() {
        let r = Report {
            findings: vec![Finding {
                file: "f.rs".to_string(),
                line: 3,
                rule: "panic",
                message: "m".to_string(),
            }],
            files_scanned: 1,
            crates: vec!["a".to_string()],
        };
        let text = r.render_text();
        assert!(text.contains("f.rs:3: [panic] m"));
        assert!(text.contains("1 finding(s)"));
    }
}
