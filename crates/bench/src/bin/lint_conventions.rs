//! Repo-convention lint: the static-analysis gate for the source tree
//! itself, run next to clippy in CI.
//!
//! Three rule families, all plain line scans (no syntax tree — the
//! conventions are deliberately simple enough that grep-level precision
//! suffices):
//!
//! 1. **Deterministic hashing in the engine crates.** `aig`, `bdd`,
//!    `mc`, `sat`, `core` and `netlist` standardized on
//!    `FxHashMap`/`FxHashSet` (`veridic_aig::hash`) — a default-hasher
//!    `std::collections::HashMap`/`HashSet` there reintroduces
//!    run-to-run iteration nondeterminism and the slower SipHash. Any
//!    `HashMap`/`HashSet` token in those crates must be the Fx variant
//!    or carry an explicit `BuildHasher` on the same line (the
//!    `hash.rs` definitions themselves).
//! 2. **No leftover debug scaffolding anywhere in `crates/`.**
//!    `dbg!`, `todo!` and `unimplemented!` are fine while developing
//!    and wrong in a commit.
//! 3. **No bare `unwrap()`/`expect()` in engine library code.** A
//!    panic in a library path takes the whole check (or a whole
//!    campaign worker) down; engine code threads `Result`s instead.
//!    Invariant assertions that genuinely cannot fire are allowed, but
//!    each must carry a `// lint: allow` marker on the same line — the
//!    marker is the review record that the panic was vetted. Test
//!    modules (everything from a `#[cfg(test)] mod` on) are exempt:
//!    panicking on a broken expectation is what tests are for.
//!
//! Usage: `cargo run -p veridic-bench --bin lint_conventions`
//! (exits 1 with one line per violation).

use std::path::{Path, PathBuf};

/// Crates standardized on FxHash (PR 2; `core` and `netlist` joined in
/// PR 9, `campaign` in PR 10).
const FX_CRATES: [&str; 7] = ["aig", "bdd", "mc", "sat", "core", "netlist", "campaign"];

/// Crates whose library code may not panic via bare `unwrap`/`expect`
/// (rule 3). Same set as [`FX_CRATES`]: the engine stack plus the
/// campaign service, where a panic kills a whole worker shard.
const NO_PANIC_CRATES: [&str; 7] = FX_CRATES;

/// Debug-scaffolding macros banned from committed code. Assembled at
/// runtime so this file does not flag itself.
fn banned_macros() -> Vec<String> {
    ["dbg", "todo", "unimplemented"]
        .iter()
        .map(|m| format!("{m}!("))
        .collect()
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates_dir = root.join("crates");
    let mut violations = Vec::new();

    let banned = banned_macros();
    for file in rs_files(&crates_dir) {
        let Ok(text) = std::fs::read_to_string(&file) else {
            continue;
        };
        let display = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .display()
            .to_string();
        let in_fx_crate = FX_CRATES
            .iter()
            .any(|c| file.starts_with(crates_dir.join(c).join("src")));
        let in_no_panic_crate = NO_PANIC_CRATES
            .iter()
            .any(|c| file.starts_with(crates_dir.join(c).join("src")));
        // Rule 3 scans library code only: stop at the `#[cfg(test)]`
        // that opens a test module (a `#[cfg(test)]` on a lone `use` or
        // item does not end the library part of the file).
        let mut in_tests = false;
        let mut pending_cfg_test = false;
        for (lineno, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if pending_cfg_test && (code.starts_with("mod ") || code.starts_with("pub mod ")) {
                in_tests = true;
            }
            pending_cfg_test = code.starts_with("#[cfg(test)]");
            if code.starts_with("//") {
                continue; // comments and doc prose may name the types
            }
            if in_fx_crate
                && (code.contains("HashMap") || code.contains("HashSet"))
                && !code.contains("FxHash")
                && !code.contains("BuildHasher")
            {
                violations.push(format!(
                    "{display}:{}: default-hasher HashMap/HashSet in an FxHash crate \
                     (use veridic_aig::hash::FxHashMap/FxHashSet)",
                    lineno + 1
                ));
            }
            if in_no_panic_crate
                && !in_tests
                && (code.contains(".unwrap()") || code.contains(".expect("))
                && !code.contains("// lint: allow")
            {
                violations.push(format!(
                    "{display}:{}: bare unwrap/expect in engine library code \
                     (thread a Result, or vet the invariant and mark the line `// lint: allow`)",
                    lineno + 1
                ));
            }
            for m in &banned {
                if code.contains(m.as_str()) {
                    violations.push(format!(
                        "{display}:{}: leftover `{}` debug macro",
                        lineno + 1,
                        &m[..m.len() - 1]
                    ));
                }
            }
        }
    }

    if violations.is_empty() {
        println!("lint_conventions: clean");
        return;
    }
    for v in &violations {
        eprintln!("{v}");
    }
    eprintln!("\nlint_conventions: {} violation(s)", violations.len());
    std::process::exit(1);
}

/// All `.rs` files under `dir`, recursively, in a deterministic order.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        let mut children: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        children.sort();
        for p in children {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banned_macro_patterns_do_not_flag_their_own_builder() {
        // The patterns are assembled at runtime precisely so the string
        // literals in this binary never contain the banned spelling.
        let banned = banned_macros();
        let expected: Vec<String> = ["dbg", "todo", "unimplemented"]
            .iter()
            .map(|m| format!("{m}!{}", "("))
            .collect();
        assert_eq!(banned, expected);
        let this_file = include_str!("lint_conventions.rs");
        for m in &banned {
            for line in this_file
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
            {
                assert!(
                    !line.contains(m.as_str()),
                    "lint source would flag itself: {line:?}"
                );
            }
        }
    }

    #[test]
    fn fx_crate_list_matches_the_standardized_crates() {
        for c in FX_CRATES {
            assert!(
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("../..")
                    .join("crates")
                    .join(c)
                    .is_dir(),
                "FX crate {c} missing"
            );
        }
    }
}
