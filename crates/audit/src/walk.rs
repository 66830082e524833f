//! Workspace source discovery — `std::fs` only, no walkdir.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::lex;
use crate::rules::SourceFile;

/// Collects every `.rs` file under the workspace root that the audit
/// covers: `crates/*/src`, `crates/*/tests`, root `src/` and `tests/`,
/// and the benchmark package's `apmbench/src`. `target/` and hidden
/// directories are never entered. Paths come back workspace-relative
/// with `/` separators, sorted for stable output.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: BTreeSet<PathBuf> = BTreeSet::new();
    for top in ["src", "tests", "apmbench/src"] {
        collect_rs(&root.join(top), &mut paths)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            for sub in ["src", "tests"] {
                collect_rs(&entry.path().join(sub), &mut paths)?;
            }
        }
    }
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let source = fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push(SourceFile {
            path: rel,
            lexed: lex(&source),
        });
    }
    Ok(out)
}

/// Recursively gathers `.rs` files below `dir` (no-op when absent).
fn collect_rs(dir: &Path, out: &mut BTreeSet<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if entry.file_type()?.is_dir() {
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.insert(path);
        }
    }
    Ok(())
}
