//! Public-API surface snapshot: dumps the `veridic` facade's
//! re-exported item list and diffs it against the checked-in
//! `API_SURFACE.txt`, so API breaks are deliberate (and reviewed)
//! rather than accidental.
//!
//! Usage:
//!
//! ```text
//! cargo run -p veridic-bench --bin api_surface            # print the surface
//! cargo run -p veridic-bench --bin api_surface -- --check # diff vs API_SURFACE.txt (CI)
//! cargo run -p veridic-bench --bin api_surface -- --write # regenerate the snapshot
//! ```
//!
//! The surface is extracted from the facade's source (`pub use`
//! declarations: the crate-level module re-exports and the `prelude`
//! items), embedded at compile time — so the tool cannot drift from the
//! code it audits. Renaming, removing or adding a re-export changes
//! the dump; the CI `--check` step (next to clippy `-D warnings`) then
//! fails until `API_SURFACE.txt` is regenerated, making the diff part
//! of the reviewed change.

/// The facade source, embedded at compile time.
const FACADE_SRC: &str = include_str!("../../../veridic/src/lib.rs");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let surface = extract_surface(FACADE_SRC);
    let dump = surface.join("\n") + "\n";

    let snapshot_path = format!("{}/../../API_SURFACE.txt", env!("CARGO_MANIFEST_DIR"));
    match args.first().map(String::as_str) {
        None => print!("{dump}"),
        Some("--write") => {
            std::fs::write(&snapshot_path, &dump)
                .unwrap_or_else(|e| panic!("cannot write {snapshot_path}: {e}"));
            println!("wrote {} items to {snapshot_path}", surface.len());
        }
        Some("--check") => {
            let want = std::fs::read_to_string(&snapshot_path)
                .unwrap_or_else(|e| panic!("cannot read {snapshot_path}: {e}"));
            let want: Vec<&str> = want.lines().collect();
            let got: Vec<&str> = surface.iter().map(String::as_str).collect();
            let removed: Vec<&&str> = want.iter().filter(|i| !got.contains(i)).collect();
            let added: Vec<&&str> = got.iter().filter(|i| !want.contains(i)).collect();
            if removed.is_empty() && added.is_empty() {
                println!("API surface unchanged ({} items)", got.len());
                return;
            }
            eprintln!("API surface drift vs API_SURFACE.txt:");
            for item in &removed {
                eprintln!("  - {item}");
            }
            for item in &added {
                eprintln!("  + {item}");
            }
            eprintln!(
                "\nIf this break is deliberate, regenerate the snapshot:\n    \
                 cargo run -p veridic-bench --bin api_surface -- --write"
            );
            std::process::exit(1);
        }
        Some(other) => {
            eprintln!("usage: api_surface [--check | --write] (got {other:?})");
            std::process::exit(2);
        }
    }
}

/// Extracts the sorted re-export list from the facade source: one
/// `mod <name>` line per crate-level `pub use <crate> as <name>;` and
/// one `prelude::<item>` line per item of the prelude's `pub use`
/// declarations.
fn extract_surface(src: &str) -> Vec<String> {
    let prelude_start = src.find("pub mod prelude").unwrap_or(src.len());
    let mut items = Vec::new();
    for (offset, decl) in pub_use_decls(src) {
        let in_prelude = offset >= prelude_start;
        for item in decl_items(&decl) {
            if in_prelude {
                items.push(format!("prelude::{item}"));
            } else if let Some((_, alias)) = item.split_once(" as ") {
                items.push(format!("mod {alias}"));
            } else {
                items.push(format!("mod {item}"));
            }
        }
    }
    items.sort();
    items.dedup();
    items
}

/// Every `pub use …;` declaration with its byte offset (may span
/// lines). Comment and doc-comment lines are blanked first — a doc
/// example containing `pub use` must not leak phantom items into the
/// snapshot (blanking, not removing, keeps byte offsets aligned with
/// the original source for the prelude split).
fn pub_use_decls(src: &str) -> Vec<(usize, String)> {
    let stripped: String = src
        .lines()
        .map(|l| {
            if l.trim_start().starts_with("//") {
                " ".repeat(l.len()) + "\n"
            } else {
                l.to_string() + "\n"
            }
        })
        .collect();
    let src = stripped.as_str();
    let mut out = Vec::new();
    let mut rest = 0;
    while let Some(pos) = src[rest..].find("pub use ") {
        let start = rest + pos;
        let Some(end) = src[start..].find(';') else {
            break;
        };
        out.push((
            start,
            src[start + "pub use ".len()..start + end].to_string(),
        ));
        rest = start + end + 1;
    }
    out
}

/// The leaf items of one declaration body: `a::b::{X, Y as Z}` yields
/// `["X", "Y as Z"]`; `a::b::X` yields `["X"]`. Nested use groups are
/// rejected loudly — a corrupted snapshot would quietly erode the
/// guard, a panic gets fixed.
fn decl_items(decl: &str) -> Vec<String> {
    let decl = decl.trim();
    match decl.split_once('{') {
        Some((_, body)) => {
            assert!(
                !body.contains('{'),
                "nested use group in the facade ({decl:?}) — flatten the `pub use` so the \
                 API surface snapshot stays one item per line"
            );
            body.trim_end_matches('}')
                .split(',')
                .map(|i| i.split_whitespace().collect::<Vec<_>>().join(" "))
                .filter(|i| !i.is_empty())
                .collect()
        }
        None => {
            let leaf = decl.rsplit("::").next().unwrap_or(decl).trim();
            vec![leaf.to_string()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_mods_and_prelude_items() {
        let src = "pub use veridic_aig as aig;\n\
                   pub mod prelude {\n\
                       pub use veridic_mc::{check, CheckOptions};\n\
                       pub use veridic_aig::Aig;\n\
                   }\n";
        let items = extract_surface(src);
        assert_eq!(
            items,
            vec![
                "mod aig".to_string(),
                "prelude::Aig".to_string(),
                "prelude::CheckOptions".to_string(),
                "prelude::check".to_string(),
            ]
        );
    }

    #[test]
    fn doc_comment_pub_use_is_ignored() {
        let src = "//! ```\n\
                   //! pub use veridic::prelude::*;\n\
                   //! ```\n\
                   /// pub use fake::Thing;\n\
                   pub use veridic_aig as aig;\n";
        assert_eq!(extract_surface(src), vec!["mod aig".to_string()]);
    }

    #[test]
    #[should_panic(expected = "nested use group")]
    fn nested_use_groups_fail_loud() {
        let src = "pub use veridic_core::{flow::{run_campaign}, other};\n";
        let _ = extract_surface(src);
    }

    #[test]
    fn the_real_facade_has_a_nontrivial_surface() {
        let items = extract_surface(FACADE_SRC);
        assert!(items.contains(&"mod mc".to_string()));
        assert!(items.contains(&"prelude::Portfolio".to_string()));
        assert!(items.len() > 50, "got {}", items.len());
    }
}
