//! `API.lock`: a committed snapshot of the workspace's public surface.
//!
//! Every `pub` item reachable from a library crate root — functions
//! (free, inherent-impl, and public-trait methods), structs and their
//! public fields, enums and their variants, traits, consts, statics, type
//! aliases, and `pub use` re-exports — is rendered as one sorted line:
//!
//! ```text
//! tweetmob-geo fn point::Point::lat_rad fn lat_rad(&self) -> f64
//! ```
//!
//! `tweetmob-lint --gen-api` writes the snapshot; `--check-api` re-derives
//! it and diffs against the committed file, so an accidental public-API
//! break (or an unreviewed addition) fails CI with an explicit
//! added/removed listing instead of surfacing as a downstream compile
//! error three PRs later.
//!
//! The snapshot is derived from the workspace item model (the crate's
//! `model` module): whitespace-normalised signatures, no bodies, no
//! private items, byte-for-byte deterministic (sorted, deduplicated,
//! trailing newline).

use crate::model::Model;

/// Renders the public-surface snapshot from a parsed workspace model.
#[must_use]
pub(crate) fn render_api(model: &Model) -> String {
    let mut lines: Vec<String> = Vec::new();
    for item in &model.items {
        let sig = if item.kind == "reexport" {
            canonical_use(&item.sig)
        } else {
            item.sig.clone()
        };
        lines.push(format!(
            "{} {} {} {}",
            item.crate_name, item.kind, item.path, sig
        ));
    }
    for f in &model.fns {
        if !(f.is_pub && f.kind.is_library() && !f.in_test) {
            continue;
        }
        let mut path = f.module.join("::");
        if let Some(ty) = &f.self_ty {
            if !path.is_empty() {
                path.push_str("::");
            }
            path.push_str(ty);
        }
        if !path.is_empty() {
            path.push_str("::");
        }
        path.push_str(&f.name);
        lines.push(format!("{} fn {} {}", f.crate_name, path, f.sig));
    }
    lines.sort();
    lines.dedup();
    let mut out = String::with_capacity(lines.len() * 64);
    out.push_str("# tweetmob public API surface — generated by `tweetmob-lint --gen-api`\n");
    out.push_str("# Review every hunk of a diff here: each line is a public-API commitment.\n");
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// One rendering of a `pub use` whatever its source layout: a brace
/// group's names sorted, `, `-separated, unpadded and without a
/// trailing comma — so a rustfmt reflow or reorder is not API drift.
fn canonical_use(sig: &str) -> String {
    let (Some(open), Some(close)) = (sig.find('{'), sig.rfind('}')) else {
        return sig.to_string();
    };
    let inner = &sig[open + 1..close];
    if inner.contains('{') {
        return sig.to_string();
    }
    let mut names: Vec<&str> = inner
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .collect();
    names.sort_unstable();
    format!("{}{}{}", &sig[..=open], names.join(", "), &sig[close..])
}

/// Diffs two snapshots, returning human-readable `+`/`-` lines (empty when
/// the surfaces match). Comment lines are ignored.
#[must_use]
pub fn diff_api(committed: &str, current: &str) -> Vec<String> {
    fn norm(s: &str) -> Vec<&str> {
        let mut v: Vec<&str> = s
            .lines()
            .map(str::trim_end)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
    let old = norm(committed);
    let new = norm(current);
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                out.push(format!("- {a}"));
                i += 1;
            }
            (Some(_), Some(b)) => {
                out.push(format!("+ {b}"));
                j += 1;
            }
            (Some(a), None) => {
                out.push(format!("- {a}"));
                i += 1;
            }
            (None, Some(b)) => {
                out.push(format!("+ {b}"));
                j += 1;
            }
            (None, None) => break,
        }
    }
    out
}
