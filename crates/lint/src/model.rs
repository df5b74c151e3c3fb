//! Workspace item model: a dependency-free lexer and brace-aware item
//! parser that turns stripped source text into crates → modules →
//! functions (with signatures and attribute context) plus the public
//! items needed for the `API.lock` snapshot, its one reader.
//!
//! The parser is deliberately *recognising*, not *validating*: it walks a
//! token stream, matches the handful of item shapes the workspace uses
//! (`fn`, `impl`, `mod`, `struct`, `enum`, `trait`, `const`, `static`,
//! `type`, `use`, `macro_rules!`), and skips anything it does not
//! understand by advancing one token. It never panics and never rejects a
//! file — on confusion it simply models less, so an item it cannot read
//! is absent from `API.lock` rather than an error. Soundness caveats are
//! catalogued in DESIGN.md §12.

use crate::{FileKind, SourceFile};

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

/// One lexical token over stripped code. Strings, comments and char
/// literals have already been blanked, so only identifiers, numbers and
/// punctuation remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tok {
    /// Byte offset of the first byte in the stripped (and raw) source.
    start: usize,
    /// Byte offset one past the last byte.
    end: usize,
    /// Token class.
    kind: TokKind,
}

/// Token classes the parser distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (possibly with suffix, e.g. `1_000u64`, `2.5`).
    Num,
    /// A single punctuation byte.
    Punct(u8),
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes stripped code into a token stream. Byte offsets index both the
/// stripped and the raw source (the stripper is byte-preserving).
fn lex(code: &str) -> Vec<Tok> {
    let bytes = code.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
        } else if is_ident_start(b) {
            let start = i;
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            toks.push(Tok {
                start,
                end: i,
                kind: TokKind::Ident,
            });
        } else if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            // A fractional part: `.` followed by a digit (so `0..9` and
            // `2.max(..)` stay out).
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                i += 1;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
            }
            toks.push(Tok {
                start,
                end: i,
                kind: TokKind::Num,
            });
        } else {
            toks.push(Tok {
                start: i,
                end: i + 1,
                kind: TokKind::Punct(b),
            });
            i += 1;
        }
    }
    toks
}

// ---------------------------------------------------------------------------
// Item model.
// ---------------------------------------------------------------------------

/// One `fn` item anywhere in the workspace.
#[derive(Debug, Clone)]
pub(crate) struct FnInfo {
    /// Package name of the owning crate.
    pub crate_name: String,
    /// How the owning file participates in its crate.
    pub kind: FileKind,
    /// Module path inside the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// Enclosing `impl` self type or `trait` name, if any.
    pub self_ty: Option<String>,
    /// Function name.
    pub name: String,
    /// Declared `pub` (exactly `pub`, not `pub(crate)`/`pub(super)`), or a
    /// method of a `pub trait` declaration.
    pub is_pub: bool,
    /// Whitespace-normalised signature text (qualifiers through return
    /// type, excluding the body and `where` clause).
    pub sig: String,
    /// Inside `#[cfg(test)]` / `#[test]` context.
    pub in_test: bool,
}

/// A non-`fn` public item recorded for the API snapshot.
#[derive(Debug, Clone)]
pub(crate) struct PubItem {
    /// Package name of the owning crate.
    pub crate_name: String,
    /// Item kind keyword (`struct`, `enum`, `variant`, `field`, `trait`,
    /// `const`, `static`, `type`, `reexport`).
    pub kind: &'static str,
    /// Module-qualified name.
    pub path: String,
    /// Whitespace-normalised declaration text.
    pub sig: String,
}

/// The parsed workspace: every function plus the public item surface.
#[derive(Debug, Default)]
pub(crate) struct Model {
    /// All functions, in file order.
    pub fns: Vec<FnInfo>,
    /// All public non-`fn` items, in file order.
    pub items: Vec<PubItem>,
}

/// A source file with its derived text layers and token stream.
struct ParsedFile {
    crate_name: String,
    kind: FileKind,
    /// The source with comments blanked (byte-preserving): the text
    /// signatures are sliced from.
    decommented: String,
    /// Stripped code (comments/strings blanked, byte-preserving).
    code: String,
    toks: Vec<Tok>,
    /// Byte ranges of `#[test]` / `#[cfg(test)]` items.
    tests: Vec<(usize, usize)>,
}

impl ParsedFile {
    fn in_test(&self, off: usize) -> bool {
        crate::in_regions(&self.tests, off)
    }
}

/// Module path implied by a file's location under `src/`:
/// `src/lib.rs`/`src/main.rs` → `[]`, `src/point.rs` → `["point"]`,
/// `src/a/mod.rs` → `["a"]`, `src/a/b.rs` → `["a", "b"]`.
fn file_module_path(label: &str) -> Vec<String> {
    let norm = label.replace('\\', "/");
    let Some(pos) = norm.rfind("/src/").map(|p| p + 5).or_else(|| {
        norm.strip_prefix("src/")
            .map(|_| 4)
            .filter(|_| norm.starts_with("src/"))
    }) else {
        return Vec::new();
    };
    let rel = &norm[pos..];
    let mut parts: Vec<String> = rel.split('/').map(str::to_string).collect();
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    let stem = last.strip_suffix(".rs").unwrap_or(&last);
    if !(stem == "lib" || stem == "main" || stem == "mod") {
        parts.push(stem.to_string());
    }
    if parts.first().map(String::as_str) == Some("bin") {
        parts.clear();
    }
    parts
}

/// Parses every file and assembles the workspace model.
pub(crate) fn parse_workspace(files: &[SourceFile]) -> Model {
    let mut model = Model::default();
    for sf in files {
        let code = crate::strip_non_code(&sf.source);
        let tests = crate::find_test_regions(&code);
        let toks = lex(&code);
        let pf = ParsedFile {
            crate_name: sf.crate_name.clone(),
            kind: sf.kind,
            decommented: crate::strip_comments(&sf.source),
            code,
            toks,
            tests,
        };
        let ctx = Ctx {
            module: file_module_path(&sf.label),
            self_ty: None,
            in_pub_trait: false,
            in_test: false,
        };
        let mut p = Parser {
            pf: &pf,
            out: &mut model,
        };
        let end = pf.toks.len();
        let mut i = 0;
        p.parse_items(&mut i, end, &ctx, 0);
    }
    model
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    module: Vec<String>,
    self_ty: Option<String>,
    in_pub_trait: bool,
    in_test: bool,
}

/// Recursion guard: items nest shallowly in practice; anything deeper is
/// degenerate input and is skipped rather than risking a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    pf: &'a ParsedFile,
    out: &'a mut Model,
}

impl Parser<'_> {
    fn text(&self, i: usize) -> &str {
        match self.pf.toks.get(i) {
            Some(t) => &self.pf.code[t.start..t.end],
            None => "",
        }
    }

    fn punct(&self, i: usize) -> Option<u8> {
        match self.pf.toks.get(i) {
            Some(Tok {
                kind: TokKind::Punct(b),
                ..
            }) => Some(*b),
            _ => None,
        }
    }

    fn is_ident(&self, i: usize, word: &str) -> bool {
        matches!(
            self.pf.toks.get(i),
            Some(Tok {
                kind: TokKind::Ident,
                ..
            })
        ) && self.text(i) == word
    }

    fn offset(&self, i: usize) -> usize {
        self.pf.toks.get(i).map_or(self.pf.code.len(), |t| t.start)
    }

    /// Skips a balanced `open`…`close` pair starting at `i` (which must
    /// point at `open`); returns the index one past the closing token.
    fn skip_balanced(&self, mut i: usize, open: u8, close: u8) -> usize {
        let mut depth = 0usize;
        while i < self.pf.toks.len() {
            match self.punct(i) {
                Some(b) if b == open => depth += 1,
                Some(b) if b == close => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Skips a generics list starting at `<`; `->` arrows inside bound
    /// lists (`F: Fn() -> T`) do not close the angle depth.
    fn skip_angles(&self, mut i: usize) -> usize {
        let mut depth = 0usize;
        while i < self.pf.toks.len() {
            match self.punct(i) {
                Some(b'<') => depth += 1,
                Some(b'>') => {
                    let arrow = i > 0
                        && self.punct(i - 1) == Some(b'-')
                        && self.pf.toks[i - 1].end == self.pf.toks[i].start;
                    if !arrow {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Skips tokens until a `;` at zero bracket depth; returns the index
    /// one past it (or the end).
    fn skip_to_semi(&self, mut i: usize) -> usize {
        let (mut par, mut brk, mut brc) = (0i64, 0i64, 0i64);
        while i < self.pf.toks.len() {
            match self.punct(i) {
                Some(b'(') => par += 1,
                Some(b')') => par -= 1,
                Some(b'[') => brk += 1,
                Some(b']') => brk -= 1,
                Some(b'{') => brc += 1,
                Some(b'}') => brc -= 1,
                Some(b';') if par == 0 && brk == 0 && brc == 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        i
    }

    fn normalize(&self, start: usize, end: usize) -> String {
        let text = &self.pf.decommented;
        normalize_ws(&text[start.min(text.len())..end.min(text.len())])
    }

    fn module_path(&self, ctx: &Ctx) -> String {
        ctx.module.join("::")
    }

    fn qualify(&self, ctx: &Ctx, name: &str) -> String {
        let m = self.module_path(ctx);
        if m.is_empty() {
            name.to_string()
        } else {
            format!("{m}::{name}")
        }
    }

    /// Parses the items in `toks[*i..end]`, leaving `*i` at `end`.
    fn parse_items(&mut self, i: &mut usize, end: usize, ctx: &Ctx, depth: usize) {
        if depth > MAX_DEPTH {
            *i = end;
            return;
        }
        let mut vis_pub = false;
        let mut pending_test = false;
        let mut sig_start: Option<usize> = None;
        while *i < end {
            let at = *i;
            match self.pf.toks[at].kind {
                TokKind::Punct(b'#') if self.punct(at + 1) == Some(b'[') => {
                    let close = self.skip_balanced(at + 1, b'[', b']');
                    let attr_text = &self.pf.code
                        [self.offset(at + 1)..self.offset(close.saturating_sub(1).max(at + 1))];
                    if crate::attr_marks_test(attr_text) {
                        pending_test = true;
                    }
                    *i = close;
                }
                TokKind::Ident => {
                    let word = self.text(at).to_string();
                    match word.as_str() {
                        "pub" => {
                            sig_start.get_or_insert(self.pf.toks[at].start);
                            if self.punct(at + 1) == Some(b'(') {
                                // `pub(crate)` / `pub(super)`: restricted.
                                *i = self.skip_balanced(at + 1, b'(', b')');
                            } else {
                                vis_pub = true;
                                *i = at + 1;
                            }
                        }
                        "const" | "static" if !self.is_ident(at + 1, "fn") => {
                            let kind: &'static str =
                                if word == "const" { "const" } else { "static" };
                            self.parse_const(i, ctx, sig_start.take(), vis_pub, pending_test, kind);
                            vis_pub = false;
                            pending_test = false;
                        }
                        "const" | "unsafe" | "async" => {
                            sig_start.get_or_insert(self.pf.toks[at].start);
                            *i = at + 1;
                        }
                        "extern" => {
                            sig_start.get_or_insert(self.pf.toks[at].start);
                            if self.is_ident(at + 1, "crate") {
                                *i = self.skip_to_semi(at + 1);
                                (vis_pub, pending_test, sig_start) = (false, false, None);
                            } else if self.punct(at + 1) == Some(b'{') {
                                *i = self.skip_balanced(at + 1, b'{', b'}');
                                (vis_pub, pending_test, sig_start) = (false, false, None);
                            } else {
                                *i = at + 1;
                            }
                        }
                        "fn" => {
                            let start = sig_start.take().unwrap_or(self.pf.toks[at].start);
                            self.parse_fn(i, ctx, start, vis_pub, pending_test);
                            vis_pub = false;
                            pending_test = false;
                        }
                        "mod" => {
                            let name = self.text(at + 1).to_string();
                            if self.punct(at + 2) == Some(b'{') {
                                let body_end = self.skip_balanced(at + 2, b'{', b'}');
                                let mut inner = ctx.clone();
                                inner.module.push(name);
                                inner.in_test = ctx.in_test || pending_test;
                                let mut j = at + 3;
                                self.parse_items(
                                    &mut j,
                                    body_end.saturating_sub(1),
                                    &inner,
                                    depth + 1,
                                );
                                *i = body_end;
                            } else {
                                *i = self.skip_to_semi(at + 1);
                            }
                            vis_pub = false;
                            pending_test = false;
                            sig_start = None;
                        }
                        "impl" => {
                            self.parse_impl(i, ctx, pending_test, depth);
                            vis_pub = false;
                            pending_test = false;
                            sig_start = None;
                        }
                        "struct" | "enum" | "union" => {
                            let start = sig_start.take().unwrap_or(self.pf.toks[at].start);
                            self.parse_type_item(i, ctx, start, vis_pub, pending_test, &word);
                            vis_pub = false;
                            pending_test = false;
                        }
                        "trait" => {
                            let start = sig_start.take().unwrap_or(self.pf.toks[at].start);
                            self.parse_trait(i, ctx, start, vis_pub, pending_test, depth);
                            vis_pub = false;
                            pending_test = false;
                        }
                        "type" => {
                            let start = sig_start.take().unwrap_or(self.pf.toks[at].start);
                            let stop = self.skip_to_semi(at);
                            if vis_pub && !ctx.in_test && !pending_test && self.pf.kind.is_library()
                            {
                                let name = self.text(at + 1).to_string();
                                let sig = self.normalize(start, self.offset(stop));
                                let path = self.qualify(ctx, &name);
                                self.out.items.push(PubItem {
                                    crate_name: self.pf.crate_name.clone(),
                                    kind: "type",
                                    path,
                                    sig,
                                });
                            }
                            *i = stop;
                            vis_pub = false;
                            pending_test = false;
                        }
                        "use" => {
                            let start = sig_start.take().unwrap_or(self.pf.toks[at].start);
                            let stop = self.skip_to_semi(at);
                            if vis_pub && !ctx.in_test && !pending_test && self.pf.kind.is_library()
                            {
                                let sig = self.normalize(start, self.offset(stop));
                                self.out.items.push(PubItem {
                                    crate_name: self.pf.crate_name.clone(),
                                    kind: "reexport",
                                    path: self.module_path(ctx),
                                    sig,
                                });
                            }
                            *i = stop;
                            vis_pub = false;
                            pending_test = false;
                        }
                        "macro_rules" => {
                            let mut j = at + 1;
                            while j < end && self.punct(j) != Some(b'{') {
                                j += 1;
                            }
                            *i = self.skip_balanced(j, b'{', b'}');
                            vis_pub = false;
                            pending_test = false;
                            sig_start = None;
                        }
                        _ => {
                            *i = at + 1;
                            vis_pub = false;
                            pending_test = false;
                            sig_start = None;
                        }
                    }
                }
                TokKind::Punct(b'{') => {
                    *i = self.skip_balanced(at, b'{', b'}');
                    vis_pub = false;
                    pending_test = false;
                    sig_start = None;
                }
                _ => {
                    *i = at + 1;
                    vis_pub = false;
                    pending_test = false;
                    sig_start = None;
                }
            }
        }
        *i = end;
    }

    /// Parses `fn name<...>(params) -> Ret { body }` with `*i` at `fn`.
    fn parse_fn(
        &mut self,
        i: &mut usize,
        ctx: &Ctx,
        sig_start: usize,
        vis_pub: bool,
        pending_test: bool,
    ) {
        let fn_at = *i;
        let name_at = fn_at + 1;
        if !matches!(
            self.pf.toks.get(name_at),
            Some(Tok {
                kind: TokKind::Ident,
                ..
            })
        ) {
            *i = fn_at + 1;
            return;
        }
        let name = self.text(name_at).to_string();
        let mut j = name_at + 1;
        if self.punct(j) == Some(b'<') {
            j = self.skip_angles(j);
        }
        if self.punct(j) != Some(b'(') {
            *i = name_at + 1;
            return;
        }
        j = self.skip_balanced(j, b'(', b')');

        // Return type: `-> Type` until `{`, `;`, or `where`.
        if self.punct(j) == Some(b'-') && self.punct(j + 1) == Some(b'>') {
            let mut k = j + 2;
            let (mut angles, mut pars) = (0i64, 0i64);
            while k < self.pf.toks.len() {
                match self.pf.toks[k].kind {
                    TokKind::Punct(b'<') => angles += 1,
                    TokKind::Punct(b'>') => {
                        let arrow = self.punct(k - 1) == Some(b'-')
                            && self.pf.toks[k - 1].end == self.pf.toks[k].start;
                        if !arrow {
                            angles -= 1;
                        }
                    }
                    TokKind::Punct(b'(') => pars += 1,
                    TokKind::Punct(b')') => pars -= 1,
                    TokKind::Punct(b'{') | TokKind::Punct(b';') if angles <= 0 && pars <= 0 => {
                        break;
                    }
                    TokKind::Ident if angles <= 0 && pars <= 0 && self.text(k) == "where" => break,
                    _ => {}
                }
                k += 1;
            }
            j = k;
        }
        // `where` clause: skip to the body or semicolon.
        if self.is_ident(j, "where") {
            while j < self.pf.toks.len()
                && self.punct(j) != Some(b'{')
                && self.punct(j) != Some(b';')
            {
                j += 1;
            }
        }
        let sig_end = self.offset(j);
        if self.punct(j) == Some(b'{') {
            j = self.skip_balanced(j, b'{', b'}');
        } else {
            j += 1; // `;`
        }
        let fn_off = self.pf.toks[fn_at].start;
        self.out.fns.push(FnInfo {
            crate_name: self.pf.crate_name.clone(),
            kind: self.pf.kind,
            module: ctx.module.clone(),
            self_ty: ctx.self_ty.clone(),
            name,
            is_pub: vis_pub || ctx.in_pub_trait,
            sig: self.normalize(sig_start, sig_end),
            in_test: ctx.in_test || pending_test || self.pf.in_test(fn_off),
        });
        *i = j;
    }

    /// Parses `impl<...> [Trait for] Type { items }` with `*i` at `impl`.
    fn parse_impl(&mut self, i: &mut usize, ctx: &Ctx, pending_test: bool, depth: usize) {
        let mut j = *i + 1;
        if self.punct(j) == Some(b'<') {
            j = self.skip_angles(j);
        }
        // Scan the header up to `{`, noting a top-level `for`.
        let header_start = j;
        let mut for_at: Option<usize> = None;
        let mut angles = 0i64;
        while j < self.pf.toks.len() {
            match self.pf.toks[j].kind {
                TokKind::Punct(b'<') => angles += 1,
                TokKind::Punct(b'>') => {
                    let arrow = j > 0
                        && self.punct(j - 1) == Some(b'-')
                        && self.pf.toks[j - 1].end == self.pf.toks[j].start;
                    if !arrow {
                        angles -= 1;
                    }
                }
                TokKind::Punct(b'{') if angles <= 0 => break,
                TokKind::Punct(b';') if angles <= 0 => {
                    *i = j + 1;
                    return;
                }
                TokKind::Ident if angles <= 0 && self.text(j) == "for" => for_at = Some(j),
                TokKind::Ident if angles <= 0 && self.text(j) == "where" => break,
                _ => {}
            }
            j += 1;
        }
        // The self type is the last path segment of the tokens after
        // `for` (trait impls) or after the generics (inherent impls).
        let ty_start = for_at.map_or(header_start, |f| f + 1);
        let mut self_ty = None;
        let mut k = ty_start;
        while k < j {
            if let Some(Tok {
                kind: TokKind::Ident,
                ..
            }) = self.pf.toks.get(k)
            {
                let w = self.text(k);
                if w != "dyn" && w != "mut" {
                    self_ty = Some(w.to_string());
                }
            }
            if self.punct(k) == Some(b'<') {
                k = self.skip_angles(k);
                continue;
            }
            k += 1;
        }
        // Resume at `{` (skip any `where` clause).
        while j < self.pf.toks.len() && self.punct(j) != Some(b'{') {
            if self.punct(j) == Some(b';') {
                *i = j + 1;
                return;
            }
            j += 1;
        }
        let body_end = self.skip_balanced(j, b'{', b'}');
        let mut inner = ctx.clone();
        inner.self_ty = self_ty;
        inner.in_pub_trait = false;
        inner.in_test = ctx.in_test || pending_test;
        let mut b = j + 1;
        self.parse_items(&mut b, body_end.saturating_sub(1), &inner, depth + 1);
        *i = body_end;
    }

    /// Parses `struct`/`enum`/`union` declarations with `*i` at the
    /// keyword, recording the item, public fields and enum variants.
    fn parse_type_item(
        &mut self,
        i: &mut usize,
        ctx: &Ctx,
        sig_start: usize,
        vis_pub: bool,
        pending_test: bool,
        word: &str,
    ) {
        let kw_at = *i;
        let name = self.text(kw_at + 1).to_string();
        let mut j = kw_at + 2;
        if self.punct(j) == Some(b'<') {
            j = self.skip_angles(j);
        }
        let head_end = self.offset(j);
        let record = vis_pub
            && !ctx.in_test
            && !pending_test
            && self.pf.kind.is_library()
            && !self.pf.in_test(self.pf.toks[kw_at].start);
        let kind: &'static str = match word {
            "enum" => "enum",
            "union" => "union",
            _ => "struct",
        };
        let path = self.qualify(ctx, &name);
        if record {
            self.out.items.push(PubItem {
                crate_name: self.pf.crate_name.clone(),
                kind,
                path: path.clone(),
                sig: self.normalize(sig_start, head_end),
            });
        }
        // Skip any `where` clause before the body.
        while j < self.pf.toks.len()
            && !matches!(self.punct(j), Some(b'{') | Some(b'(') | Some(b';'))
        {
            j += 1;
        }
        match self.punct(j) {
            Some(b';') => *i = j + 1,
            Some(b'(') => {
                // Tuple struct: the whole parenthesised list is API.
                let close = self.skip_balanced(j, b'(', b')');
                if record {
                    let sig = self.normalize(self.offset(j), self.offset(close));
                    self.out.items.push(PubItem {
                        crate_name: self.pf.crate_name.clone(),
                        kind: "fields",
                        path: path.clone(),
                        sig,
                    });
                }
                *i = self.skip_to_semi(close);
            }
            Some(b'{') => {
                let close = self.skip_balanced(j, b'{', b'}');
                if record {
                    if word == "enum" {
                        self.record_variants(j + 1, close.saturating_sub(1), &path);
                    } else {
                        self.record_fields(j + 1, close.saturating_sub(1), &path);
                    }
                }
                *i = close;
            }
            _ => *i = j,
        }
    }

    /// Records `pub name: Type` fields of a pub struct body.
    fn record_fields(&mut self, start: usize, end: usize, path: &str) {
        let mut k = start;
        let (mut angles, mut pars) = (0i64, 0i64);
        let mut field_pub = false;
        while k < end {
            match self.pf.toks[k].kind {
                TokKind::Punct(b'#') if self.punct(k + 1) == Some(b'[') => {
                    k = self.skip_balanced(k + 1, b'[', b']');
                    continue;
                }
                TokKind::Punct(b'<') => angles += 1,
                TokKind::Punct(b'>') => angles -= 1,
                TokKind::Punct(b'(') => pars += 1,
                TokKind::Punct(b')') => pars -= 1,
                TokKind::Punct(b',') if angles <= 0 && pars == 0 => field_pub = false,
                TokKind::Ident if angles <= 0 && pars == 0 && self.text(k) == "pub" => {
                    if self.punct(k + 1) == Some(b'(') {
                        k = self.skip_balanced(k + 1, b'(', b')');
                        continue;
                    }
                    field_pub = true;
                }
                TokKind::Ident
                    if field_pub && angles <= 0 && pars == 0 && self.punct(k + 1) == Some(b':') =>
                {
                    let fname = self.text(k).to_string();
                    // Type: tokens until a top-level comma or the end.
                    let ty_start = k + 2;
                    let mut t = ty_start;
                    let (mut a2, mut p2) = (0i64, 0i64);
                    while t < end {
                        match self.punct(t) {
                            Some(b'<') => a2 += 1,
                            Some(b'>') => a2 -= 1,
                            Some(b'(') => p2 += 1,
                            Some(b')') => p2 -= 1,
                            Some(b',') if a2 <= 0 && p2 == 0 => break,
                            _ => {}
                        }
                        t += 1;
                    }
                    let ty = self.normalize(self.offset(ty_start), self.offset(t));
                    self.out.items.push(PubItem {
                        crate_name: self.pf.crate_name.clone(),
                        kind: "field",
                        path: format!("{path}.{fname}"),
                        sig: format!("{fname}: {ty}"),
                    });
                    field_pub = false;
                    k = t;
                    continue;
                }
                _ => {}
            }
            k += 1;
        }
    }

    /// Records the variants of a pub enum body.
    fn record_variants(&mut self, start: usize, end: usize, path: &str) {
        let mut k = start;
        while k < end {
            match self.pf.toks[k].kind {
                TokKind::Punct(b'#') if self.punct(k + 1) == Some(b'[') => {
                    k = self.skip_balanced(k + 1, b'[', b']');
                }
                TokKind::Ident => {
                    let vname = self.text(k).to_string();
                    let v_start = self.pf.toks[k].start;
                    let mut t = k + 1;
                    // Payload: tuple parens, struct braces, or `= disc`.
                    loop {
                        match self.punct(t) {
                            Some(b'(') => t = self.skip_balanced(t, b'(', b')'),
                            Some(b'{') => t = self.skip_balanced(t, b'{', b'}'),
                            Some(b'=') => t += 1,
                            Some(b',') => break,
                            _ if t >= end => break,
                            _ => t += 1,
                        }
                        if t >= end {
                            break;
                        }
                        if self.punct(t) == Some(b',') {
                            break;
                        }
                    }
                    let sig = self.normalize(v_start, self.offset(t));
                    self.out.items.push(PubItem {
                        crate_name: self.pf.crate_name.clone(),
                        kind: "variant",
                        path: format!("{path}::{vname}"),
                        sig,
                    });
                    k = t + 1;
                }
                _ => k += 1,
            }
        }
    }

    /// Parses `trait Name { ... }` with `*i` at `trait`, recording the
    /// trait and descending so its method signatures are modelled.
    fn parse_trait(
        &mut self,
        i: &mut usize,
        ctx: &Ctx,
        sig_start: usize,
        vis_pub: bool,
        pending_test: bool,
        depth: usize,
    ) {
        let kw_at = *i;
        let name = self.text(kw_at + 1).to_string();
        let mut j = kw_at + 2;
        if self.punct(j) == Some(b'<') {
            j = self.skip_angles(j);
        }
        let head_end = self.offset(j);
        let record = vis_pub
            && !ctx.in_test
            && !pending_test
            && self.pf.kind.is_library()
            && !self.pf.in_test(self.pf.toks[kw_at].start);
        if record {
            self.out.items.push(PubItem {
                crate_name: self.pf.crate_name.clone(),
                kind: "trait",
                path: self.qualify(ctx, &name),
                sig: self.normalize(sig_start, head_end),
            });
        }
        // Supertraits / where clause: advance to the body.
        while j < self.pf.toks.len() && self.punct(j) != Some(b'{') {
            if self.punct(j) == Some(b';') {
                *i = j + 1;
                return;
            }
            j += 1;
        }
        let body_end = self.skip_balanced(j, b'{', b'}');
        let mut inner = ctx.clone();
        inner.self_ty = Some(name);
        inner.in_pub_trait = record;
        inner.in_test = ctx.in_test || pending_test;
        let mut b = j + 1;
        self.parse_items(&mut b, body_end.saturating_sub(1), &inner, depth + 1);
        *i = body_end;
    }

    /// Parses `const NAME: Ty = value;` / `static NAME: Ty = value;` with
    /// `*i` at the keyword. The value is not part of the snapshot.
    fn parse_const(
        &mut self,
        i: &mut usize,
        ctx: &Ctx,
        sig_start: Option<usize>,
        vis_pub: bool,
        pending_test: bool,
        kind: &'static str,
    ) {
        let kw_at = *i;
        let start = sig_start.unwrap_or(self.pf.toks[kw_at].start);
        let stop = self.skip_to_semi(kw_at);
        if vis_pub
            && !ctx.in_test
            && !pending_test
            && self.pf.kind.is_library()
            && !self.pf.in_test(self.pf.toks[kw_at].start)
        {
            let name = self.text(kw_at + 1).to_string();
            // Snapshot up to the `=` (the declared type, not the value).
            let mut eq = kw_at;
            while eq < stop && self.punct(eq) != Some(b'=') {
                eq += 1;
            }
            let sig = self.normalize(start, self.offset(eq));
            self.out.items.push(PubItem {
                crate_name: self.pf.crate_name.clone(),
                kind,
                path: self.qualify(ctx, &name),
                sig,
            });
        }
        *i = stop;
    }
}

/// Collapses all whitespace runs to single spaces and trims.
pub(crate) fn normalize_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}
