//! Unit-of-measure checking for the geographic crates.
//!
//! Degrees, radians and kilometres all travel as bare `f64` in this
//! workspace; the compiler cannot tell them apart, and a mixed-unit
//! expression (the classic degrees-into-`sin` bug) silently corrupts
//! every downstream OD matrix. This pass tracks units through the naming
//! convention the workspace already uses — `_deg`/`_degrees`,
//! `_rad`/`_radians`, `_km` suffixes on parameters and bindings — plus
//! known conversion sinks (`to_radians`, `to_degrees`, `lat_rad`,
//! `lon_rad`, `haversine_km`, …), and reports:
//!
//! * **mixed-unit arithmetic** — `+`, `-` or an ordering comparison
//!   between values of different inferred units;
//! * **double conversions** — `.to_radians()` on a radians value or
//!   `.to_degrees()` on a degrees value;
//! * **trig on degrees** — `.sin()`/`.cos()`/`.tan()` directly on a
//!   degrees value (the sink expects radians);
//! * **suffix contradictions** — `let x_deg = y.to_radians();` and
//!   friends, where a binding's declared unit disagrees with its
//!   initialiser's inferred unit.
//!
//! Inference is intraprocedural and conservative: a value with no suffix
//! and no recognised producer has no unit and is never reported. The rule
//! runs only in the crates where the conventions hold (`geo`, `models`,
//! `epidemic`).

use crate::model::{Model, ParsedFile, Tok, TokKind};
use crate::{Diagnostic, Rule};
use std::collections::BTreeMap;

/// Crates whose code follows the suffix conventions this pass enforces.
pub(crate) const UNIT_CRATES: &[&str] = &["tweetmob-geo", "tweetmob-models", "tweetmob-epidemic"];

/// The units the naming convention distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Deg,
    Rad,
    Km,
}

impl Unit {
    fn name(self) -> &'static str {
        match self {
            Unit::Deg => "degrees",
            Unit::Rad => "radians",
            Unit::Km => "km",
        }
    }
}

/// Unit implied by an identifier's suffix, if any.
fn suffix_unit(name: &str) -> Option<Unit> {
    if name.ends_with("_deg") || name.ends_with("_degrees") {
        Some(Unit::Deg)
    } else if name.ends_with("_rad") || name.ends_with("_radians") {
        Some(Unit::Rad)
    } else if name.ends_with("_km") {
        Some(Unit::Km)
    } else {
        None
    }
}

/// Unit produced by calling a function/method of this name.
fn producer_unit(name: &str) -> Option<Unit> {
    match name {
        "to_radians" => Some(Unit::Rad),
        "to_degrees" => Some(Unit::Deg),
        _ => suffix_unit(name),
    }
}

/// Runs the unit pass over every non-test library function of the unit
/// crates.
pub(crate) fn check_units(pfs: &[ParsedFile], model: &Model, out: &mut Vec<Diagnostic>) {
    for f in &model.fns {
        if f.in_test || !f.kind.is_library() || !UNIT_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let Some(body) = f.body else { continue };
        let pf = &pfs[f.file];
        let mut env: BTreeMap<String, Unit> = BTreeMap::new();
        for p in &f.params {
            if let Some(u) = suffix_unit(p) {
                env.insert(p.clone(), u);
            }
        }
        check_body(pf, body, &mut env, out);
    }
}

fn body_toks(pf: &ParsedFile, body: (usize, usize)) -> (usize, usize) {
    let lo = pf.toks.partition_point(|t| t.start < body.0);
    let hi = pf.toks.partition_point(|t| t.start < body.1);
    (lo, hi.max(lo))
}

fn ident<'a>(pf: &'a ParsedFile, t: &Tok) -> Option<&'a str> {
    if t.kind == TokKind::Ident {
        Some(&pf.code[t.start..t.end])
    } else {
        None
    }
}

/// Unit of a single identifier under the current environment.
fn ident_unit(env: &BTreeMap<String, Unit>, name: &str) -> Option<Unit> {
    env.get(name).copied().or_else(|| suffix_unit(name))
}

fn check_body(
    pf: &ParsedFile,
    body: (usize, usize),
    env: &mut BTreeMap<String, Unit>,
    out: &mut Vec<Diagnostic>,
) {
    let (lo, hi) = body_toks(pf, body);
    let toks = &pf.toks[lo..hi];
    let mut k = 0;
    while k < toks.len() {
        let t = &toks[k];
        if pf.in_test(t.start) {
            k += 1;
            continue;
        }
        // `let [mut] name [: ty] = expr ;` — infer the binding's unit and
        // flag suffix contradictions.
        if ident(pf, t) == Some("let") {
            let mut n = k + 1;
            if n < toks.len() && ident(pf, &toks[n]) == Some("mut") {
                n += 1;
            }
            // An uppercase "name" is a pattern constructor (`let Some(x)`,
            // `let Ok(v)`), not a binding — skip those.
            if let Some(name) = toks
                .get(n)
                .and_then(|t| ident(pf, t))
                .filter(|n| n.starts_with(|c: char| c.is_lowercase() || c == '_'))
            {
                let name = name.to_string();
                // Find `=` at depth 0 before `;`.
                let mut e = n + 1;
                let (mut par, mut ang) = (0i64, 0i64);
                let mut eq_at = None;
                while e < toks.len() {
                    match toks[e].kind {
                        TokKind::Punct(b'(') => par += 1,
                        TokKind::Punct(b')') => par -= 1,
                        TokKind::Punct(b'<') => ang += 1,
                        TokKind::Punct(b'>') => ang -= 1,
                        TokKind::Punct(b'=') if par == 0 => {
                            // `==`, `>=`, `<=`, `!=`, `=>` are not assignment.
                            let pn = toks.get(e + 1).map(|t| t.kind);
                            let pp = if e > 0 { Some(toks[e - 1].kind) } else { None };
                            let part_of_cmp = matches!(pn, Some(TokKind::Punct(b'=')))
                                || matches!(
                                    pp,
                                    Some(TokKind::Punct(b'='))
                                        | Some(TokKind::Punct(b'<'))
                                        | Some(TokKind::Punct(b'>'))
                                        | Some(TokKind::Punct(b'!'))
                                );
                            if !part_of_cmp {
                                eq_at = Some(e);
                                break;
                            }
                        }
                        TokKind::Punct(b';') if par == 0 => break,
                        _ => {}
                    }
                    e += 1;
                }
                let _ = ang;
                if let Some(eq) = eq_at {
                    // Expression: tokens until `;` at depth 0.
                    let mut s = eq + 1;
                    let (mut par2, mut brc2, mut brk2) = (0i64, 0i64, 0i64);
                    let expr_start = s;
                    while s < toks.len() {
                        match toks[s].kind {
                            TokKind::Punct(b'(') => par2 += 1,
                            TokKind::Punct(b')') => par2 -= 1,
                            TokKind::Punct(b'{') => brc2 += 1,
                            TokKind::Punct(b'}') => brc2 -= 1,
                            TokKind::Punct(b'[') => brk2 += 1,
                            TokKind::Punct(b']') => brk2 -= 1,
                            TokKind::Punct(b';') if par2 == 0 && brc2 == 0 && brk2 == 0 => break,
                            _ => {}
                        }
                        s += 1;
                    }
                    let inferred = expr_unit(pf, env, &toks[expr_start..s]);
                    if let Some(u) = inferred {
                        if let Some(declared) = suffix_unit(&name) {
                            if declared != u {
                                out.push(Diagnostic {
                                    file: pf.label.clone(),
                                    line: pf.line_of(t.start),
                                    rule: Rule::UnitMeasure,
                                    message: format!(
                                        "binding `{name}` is suffixed {} but its initialiser \
                                         evaluates to {}: rename the binding or fix the \
                                         conversion",
                                        declared.name(),
                                        u.name()
                                    ),
                                });
                            }
                        }
                        env.insert(name, u);
                    }
                }
            }
        }
        // `X.to_radians()` / `X.to_degrees()` double conversions and
        // `X.sin()`-family trig sinks, for unit-bearing receivers.
        if t.kind == TokKind::Punct(b'.') && k > 0 {
            if let (Some(recv), Some(method)) = (
                ident(pf, &toks[k - 1]),
                toks.get(k + 1).and_then(|m| ident(pf, m)),
            ) {
                // Plain identifier receiver only (field access `a.b.sin()`
                // has an unknowable unit and stays unreported).
                let recv_is_expr_start = k < 2 || !matches!(toks[k - 2].kind, TokKind::Punct(b'.'));
                let recv_unit = ident_unit(env, recv);
                if recv_is_expr_start
                    && toks.get(k + 2).map(|t| t.kind) == Some(TokKind::Punct(b'('))
                {
                    if let Some(u) = recv_unit {
                        let line = pf.line_of(t.start);
                        match (method, u) {
                            ("to_radians", Unit::Rad) => out.push(diag(
                                pf,
                                line,
                                format!(
                                    "`{recv}.to_radians()` but `{recv}` is already radians: \
                                     double conversion scales by π/180 twice"
                                ),
                            )),
                            ("to_degrees", Unit::Deg) => out.push(diag(
                                pf,
                                line,
                                format!(
                                    "`{recv}.to_degrees()` but `{recv}` is already degrees: \
                                     double conversion scales by 180/π twice"
                                ),
                            )),
                            ("sin" | "cos" | "tan" | "sin_cos", Unit::Deg) => out.push(diag(
                                pf,
                                line,
                                format!(
                                    "`{recv}.{method}()` but `{recv}` is degrees: trig \
                                     functions take radians — convert with `.to_radians()` \
                                     first"
                                ),
                            )),
                            ("to_radians", Unit::Km) | ("to_degrees", Unit::Km) => out.push(diag(
                                pf,
                                line,
                                format!(
                                    "`{recv}.{method}()` but `{recv}` is a distance in km: \
                                     angle conversion on a length is a unit bug"
                                ),
                            )),
                            _ => {}
                        }
                    }
                }
            }
        }
        // Mixed-unit `a + b`, `a - b`, and ordering comparisons between
        // two unit-bearing identifiers.
        if let TokKind::Punct(op @ (b'+' | b'-' | b'<' | b'>')) = t.kind {
            let adjacent_punct =
                |i: usize, b: u8| toks.get(i).is_some_and(|t2| t2.kind == TokKind::Punct(b));
            // Exclude `->`, `=>`, `<=`/`>=` halves handled below, `::<`,
            // `+=`/`-=` compound assignment (still arithmetic: keep).
            let arrow = op == b'>' && k > 0 && adjacent_punct(k - 1, b'-');
            let fat_arrow = op == b'>' && k > 0 && adjacent_punct(k - 1, b'=');
            let turbofish = op == b'<' && k > 0 && adjacent_punct(k - 1, b':');
            let shift = (op == b'<' && adjacent_punct(k + 1, b'<'))
                || (op == b'>' && adjacent_punct(k + 1, b'>'))
                || (op == b'<' && k > 0 && adjacent_punct(k - 1, b'<'))
                || (op == b'>' && k > 0 && adjacent_punct(k - 1, b'>'));
            let generic_close = op == b'>' && k > 0 && adjacent_punct(k - 1, b'\'');
            if !(arrow || fat_arrow || turbofish || shift || generic_close) {
                let lhs = if k > 0 { ident(pf, &toks[k - 1]) } else { None };
                // Skip `<=`/`>=`: the rhs ident sits one further out.
                let rhs_at = if adjacent_punct(k + 1, b'=') {
                    k + 2
                } else {
                    k + 1
                };
                let rhs = toks.get(rhs_at).and_then(|t2| ident(pf, t2));
                // The rhs must be a value, not a call or a path segment.
                let rhs_is_value = !matches!(
                    toks.get(rhs_at + 1).map(|t2| t2.kind),
                    Some(TokKind::Punct(b'(')) | Some(TokKind::Punct(b':'))
                );
                // The lhs must not be a field access tail `p.x_km`— those
                // still carry their suffix; allow them. But a generic
                // bound `T: Ord>` is excluded by requiring value position.
                if let (Some(a), Some(b)) = (lhs, rhs) {
                    if rhs_is_value {
                        if let (Some(ua), Some(ub)) = (ident_unit(env, a), ident_unit(env, b)) {
                            if ua != ub {
                                out.push(diag(
                                    pf,
                                    pf.line_of(t.start),
                                    format!(
                                        "mixed units: `{a}` is {} but `{b}` is {} — convert \
                                         one side before combining",
                                        ua.name(),
                                        ub.name()
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
        }
        k += 1;
    }
}

fn diag(pf: &ParsedFile, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        file: pf.label.clone(),
        line,
        rule: Rule::UnitMeasure,
        message,
    }
}

/// Infers the unit of an expression token span: every unit-bearing
/// identifier and producer call must agree, otherwise no unit (mixed
/// arithmetic is reported at the operator site instead).
fn expr_unit(pf: &ParsedFile, env: &BTreeMap<String, Unit>, toks: &[Tok]) -> Option<Unit> {
    // A conversion call at the end of a chain settles it outright:
    // `bearing_deg.to_radians()` is radians, whatever fed it.
    for k in (0..toks.len()).rev() {
        if let Some(name) = ident(pf, &toks[k]) {
            if matches!(name, "to_radians" | "to_degrees")
                && matches!(
                    toks.get(k + 1).map(|t2| t2.kind),
                    Some(TokKind::Punct(b'('))
                )
            {
                return producer_unit(name);
            }
            // Any other trailing method (`.max(0.0)`) keeps scanning left.
        }
        if matches!(toks[k].kind, TokKind::Punct(b'+' | b'-' | b'*' | b'/')) {
            break;
        }
    }
    // Multiplication/division changes dimension (`radius_km / KM_PER_DEG`
    // is degrees, not km): without real dimensional analysis the result
    // unit is unknowable, so infer nothing.
    if toks
        .iter()
        .any(|t| matches!(t.kind, TokKind::Punct(b'*' | b'/')))
    {
        return None;
    }
    // Otherwise (sums, min/max clamps, plain copies) every unit-bearing
    // identifier and producer call must agree.
    let mut found: Option<Unit> = None;
    for (k, t) in toks.iter().enumerate() {
        if let Some(name) = ident(pf, t) {
            let next_is_call = matches!(
                toks.get(k + 1).map(|t2| t2.kind),
                Some(TokKind::Punct(b'('))
            );
            let u = if next_is_call {
                producer_unit(name)
            } else {
                ident_unit(env, name)
            };
            if let Some(u) = u {
                match found {
                    Some(f) if f != u => return None,
                    _ => found = Some(u),
                }
            }
        }
    }
    found
}
