//! Determinism taint: wall-clock and scheduling-dependent values must not
//! reach serialized output.
//!
//! The workspace's bit-reproducibility contract says every result-bearing
//! byte is a pure function of the input and the seed. Timing
//! (`Instant::now`, `.elapsed()`), thread identity (`thread::current()`),
//! and iteration order of unordered containers (`HashMap`/`HashSet`) all
//! vary run to run, so a value *derived* from them may not flow into
//! JSON or bench output. The one sanctioned path is `tweetmob-obs`, whose
//! renderer isolates timing in `_ns`-suffixed fields that the comparison
//! tooling redacts — that crate is exempt from sink reporting here (a
//! documented soundness hole, kept narrow by the obs crate's own tests).
//!
//! The pass is intraprocedural: within each function body it collects
//! bindings initialised from a nondeterministic source, propagates the
//! taint through later `let` bindings that mention a tainted name, and
//! reports any tainted identifier appearing in the argument list of a
//! serialization sink (functions whose name mentions `json`/`serialize`
//! or one of the trace-event exporters, and the formatting macros). Taint does not cross function boundaries —
//! a tainted value returned from a helper re-enters untracked. That
//! under-approximation is the price of a dep-free engine; clippy's
//! `disallowed-methods`/`disallowed-types` still ban the sources outright
//! outside `tweetmob-obs`, so cross-function laundering cannot start
//! there in the first place.

use crate::model::{Model, ParsedFile, Tok, TokKind};
use crate::{Diagnostic, Rule};
use std::collections::BTreeMap;

/// How a binding became tainted, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Clock,
    ThreadId,
    UnorderedIter,
}

impl Source {
    fn describe(self) -> &'static str {
        match self {
            Source::Clock => "a wall-clock reading (`Instant`/`elapsed`)",
            Source::ThreadId => "a thread identity",
            Source::UnorderedIter => "iteration over an unordered container",
        }
    }
}

/// Sink macros: formatting output that could reach a report or bench log.
const SINK_MACROS: &[&str] = &[
    "print", "println", "eprint", "eprintln", "write", "writeln", "format",
];

/// Sink functions, matched by name substring: JSON/serialization
/// surfaces plus the trace-event exporters. The exporters turn the
/// event log into Chrome-trace JSON or collapsed flamegraph stacks, so
/// a timing value smuggled into their arguments would land in exported
/// bytes exactly like one smuggled into a `to_json` call. The exporters
/// *inside* `tweetmob-obs` stay exempt with the rest of that crate —
/// the event log's `t_ns`/`dur_ns` payloads are the sanctioned,
/// redactable timing path.
const SINK_FN_SUBSTRINGS: &[&str] = &["json", "serialize", "chrome_trace", "collapsed_stacks"];

/// Runs the taint pass over every non-test function with a body, except in
/// `tweetmob-obs` (the sanctioned `_ns` redaction path).
pub(crate) fn check_taint(pfs: &[ParsedFile], model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        if f.in_test || f.crate_name == "tweetmob-obs" {
            continue;
        }
        let Some(body) = f.body else { continue };
        // Parameters of a nondeterministic type are tainted on entry: the
        // caller handed over a clock reading or an unordered container.
        let mut env: BTreeMap<String, Source> = BTreeMap::new();
        for p in &f.params {
            if p.name == "_" {
                continue;
            }
            if p.ty.contains("Instant") {
                env.insert(p.name.clone(), Source::Clock);
            } else if p.ty.contains("HashMap") || p.ty.contains("HashSet") {
                env.insert(p.name.clone(), Source::UnorderedIter);
            }
        }
        check_body(&pfs[f.file], body, env, out);
    }
}

fn body_toks(pf: &ParsedFile, body: (usize, usize)) -> &[Tok] {
    let lo = pf.toks.partition_point(|t| t.start < body.0);
    let hi = pf.toks.partition_point(|t| t.start < body.1);
    &pf.toks[lo..hi.max(lo)]
}

fn ident<'a>(pf: &'a ParsedFile, t: &Tok) -> Option<&'a str> {
    if t.kind == TokKind::Ident {
        Some(&pf.code[t.start..t.end])
    } else {
        None
    }
}

/// Scans an expression token span for a taint source, or for mention of an
/// already-tainted binding.
fn expr_taint(pf: &ParsedFile, env: &BTreeMap<String, Source>, toks: &[Tok]) -> Option<Source> {
    let mut k = 0;
    while k < toks.len() {
        if let Some(name) = ident(pf, &toks[k]) {
            let next_kind = toks.get(k + 1).map(|t| t.kind);
            let is_call = matches!(next_kind, Some(TokKind::Punct(b'(')));
            match name {
                "Instant" | "elapsed" => return Some(Source::Clock),
                "current" if is_call && k >= 2 && ident(pf, &toks[k - 2]) == Some("thread") => {
                    return Some(Source::ThreadId)
                }
                "HashMap" | "HashSet" => return Some(Source::UnorderedIter),
                _ => {
                    if let Some(&src) = env.get(name) {
                        return Some(src);
                    }
                }
            }
        }
        k += 1;
    }
    None
}

fn check_body(
    pf: &ParsedFile,
    body: (usize, usize),
    mut env: BTreeMap<String, Source>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = body_toks(pf, body);
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if pf.in_test(t.start) {
            k += 1;
            continue;
        }
        // `let [mut] name ... = expr ;` — propagate taint into the binding.
        if ident(pf, t) == Some("let") {
            let mut n = k + 1;
            if n < toks.len() && ident(pf, &toks[n]) == Some("mut") {
                n += 1;
            }
            // An uppercase "name" is a pattern constructor (`let Some(x)`,
            // `let Ok(v)`), not a binding — skip those.
            if let Some(name) = toks
                .get(n)
                .and_then(|t2| ident(pf, t2))
                .filter(|n2| n2.starts_with(|c: char| c.is_lowercase() || c == '_'))
            {
                let name = name.to_string();
                // Find the end of the statement at depth 0.
                let mut e = n + 1;
                let (mut par, mut brc, mut brk) = (0i64, 0i64, 0i64);
                let stmt_start = e;
                while e < toks.len() {
                    match toks[e].kind {
                        TokKind::Punct(b'(') => par += 1,
                        TokKind::Punct(b')') => par -= 1,
                        TokKind::Punct(b'{') => brc += 1,
                        TokKind::Punct(b'}') => brc -= 1,
                        TokKind::Punct(b'[') => brk += 1,
                        TokKind::Punct(b']') => brk -= 1,
                        TokKind::Punct(b';') if par == 0 && brc == 0 && brk == 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                if let Some(src) = expr_taint(pf, &env, &toks[stmt_start..e]) {
                    env.insert(name, src);
                }
                k = n;
            }
        }
        // `for pat in tainted_expr { .. }` — the loop variable is tainted
        // when iterating something tainted by an unordered container.
        if ident(pf, t) == Some("for") {
            // pattern tokens until `in` at depth 0.
            let mut n = k + 1;
            let mut pat_names = Vec::new();
            let mut depth = 0i64;
            while n < toks.len() {
                match toks[n].kind {
                    TokKind::Punct(b'(') => depth += 1,
                    TokKind::Punct(b')') => depth -= 1,
                    TokKind::Ident if depth >= 0 => {
                        let w = &pf.code[toks[n].start..toks[n].end];
                        if w == "in" && depth == 0 {
                            break;
                        }
                        if w != "mut"
                            && w != "ref"
                            && w.starts_with(|c: char| c.is_lowercase() || c == '_')
                        {
                            pat_names.push(w.to_string());
                        }
                    }
                    _ => {}
                }
                n += 1;
            }
            // iterable tokens until `{` at depth 0. (`n` may already sit
            // at the end when this was a `for<'a>` HRTB, not a loop.)
            let iter_start = (n + 1).min(toks.len());
            let mut e = iter_start;
            let mut d2 = 0i64;
            while e < toks.len() {
                match toks[e].kind {
                    TokKind::Punct(b'(') | TokKind::Punct(b'[') => d2 += 1,
                    TokKind::Punct(b')') | TokKind::Punct(b']') => d2 -= 1,
                    TokKind::Punct(b'{') if d2 == 0 => break,
                    _ => {}
                }
                e += 1;
            }
            if let Some(src) = expr_taint(pf, &env, &toks[iter_start..e]) {
                if src == Source::UnorderedIter {
                    for nme in pat_names {
                        env.insert(nme, src);
                    }
                }
            }
        }
        // Sinks: `foo_json(..)` / `serialize_*(..)` calls and formatting
        // macros with a tainted identifier among the arguments.
        if let Some(name) = ident(pf, t) {
            let next = toks.get(k + 1).map(|t2| t2.kind);
            let lower = name.to_ascii_lowercase();
            let is_fn_sink = matches!(next, Some(TokKind::Punct(b'(')))
                && SINK_FN_SUBSTRINGS.iter().any(|s| lower.contains(s));
            let is_macro_sink =
                matches!(next, Some(TokKind::Punct(b'!'))) && SINK_MACROS.contains(&lower.as_str());
            if is_fn_sink || is_macro_sink {
                // Argument span: the balanced parens after the name (for a
                // macro, after the `!`).
                let open = if is_macro_sink { k + 2 } else { k + 1 };
                if matches!(toks.get(open).map(|t2| t2.kind), Some(TokKind::Punct(b'('))) {
                    let mut e = open + 1;
                    let mut depth = 1i64;
                    let arg_start = e;
                    while e < toks.len() && depth > 0 {
                        match toks[e].kind {
                            TokKind::Punct(b'(') => depth += 1,
                            TokKind::Punct(b')') => depth -= 1,
                            _ => {}
                        }
                        e += 1;
                    }
                    let args = &toks[arg_start..e.saturating_sub(1).max(arg_start)];
                    let tainted = args.iter().find_map(|a| {
                        ident(pf, a).and_then(|w| env.get(w).map(|&s| (w.to_string(), s)))
                    });
                    if let Some((var, src)) = tainted {
                        out.push(Diagnostic {
                            file: pf.label.clone(),
                            line: pf.line_of(t.start),
                            rule: Rule::DeterminismTaint,
                            message: format!(
                                "`{var}` is derived from {} and flows into `{name}`: \
                                 nondeterministic bytes in serialized output break \
                                 bit-reproducibility — route timing through tweetmob-obs \
                                 `_ns` fields instead",
                                src.describe()
                            ),
                        });
                    }
                }
            }
        }
        k += 1;
    }
}
