//! Expression-aware helpers over the token stream: method-call shape,
//! call-chain walking, and statement-local type evidence.
//!
//! This is deliberately **not** a Rust parser. The flow-aware rules
//! (`float-fold`, `unsalted-rng`) need three questions answered about a
//! token position: *is this a method call, and where are its arguments?*,
//! *does the receiver chain pass through an iterator adapter?*, and *what
//! type evidence surrounds this statement?*. All three are answerable with
//! balanced-delimiter scans over the existing [`Tok`]
//! stream, keeping the linter dependency-free and robust to half-broken
//! source.

use crate::lexer::{Tok, TokKind};

/// Iterator-producing / iterator-transforming method names: a call chain
/// passing through one of these is treated as iterating a sequence, so a
/// terminal `sum`/`fold`/`reduce` re-associates element order.
pub const ITERATOR_ADAPTERS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "zip",
    "enumerate",
    "rev",
    "chain",
    "copied",
    "cloned",
    "skip",
    "take",
    "step_by",
    "windows",
    "chunks",
    "drain",
    "values",
    "keys",
];

/// `true` when the ident at `i` is a method call: preceded by `.`, followed
/// by `(` or a `::<…>(` turbofish.
pub fn is_method_call(toks: &[Tok], i: usize) -> bool {
    i >= 1 && toks[i - 1].is_punct(".") && call_open_paren(toks, i).is_some()
}

/// Index of the call's opening `(`, skipping an optional `::<…>` turbofish
/// after the ident at `i`. `None` when the ident is not followed by a call.
pub fn call_open_paren(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct(":"))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(":"))
    {
        j += 2;
        if !toks.get(j).is_some_and(|t| t.is_punct("<")) {
            return None;
        }
        let mut depth = 0i32;
        while j < toks.len() {
            if toks[j].is_punct("<") {
                depth += 1;
            } else if toks[j].is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    toks.get(j).is_some_and(|t| t.is_punct("(")).then_some(j)
}

/// The ident texts inside a `::<…>` turbofish directly after the ident at
/// `i` (`sum::<f64>()` → `["f64"]`). Empty when there is no turbofish.
pub fn turbofish_idents(toks: &[Tok], i: usize) -> Vec<&str> {
    let mut out = Vec::new();
    let mut j = i + 1;
    if !(toks.get(j).is_some_and(|t| t.is_punct(":"))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(":"))
        && toks.get(j + 2).is_some_and(|t| t.is_punct("<")))
    {
        return out;
    }
    j += 2;
    let mut depth = 0i32;
    while j < toks.len() {
        if toks[j].is_punct("<") {
            depth += 1;
        } else if toks[j].is_punct(">") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if toks[j].kind == TokKind::Ident {
            out.push(toks[j].text.as_str());
        }
        j += 1;
    }
    out
}

/// Index of the `)` matching the `(` at `open` (tracks all three bracket
/// kinds so closures and index expressions nest safely). Returns the last
/// token index when unbalanced.
pub fn matching_close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" | "{" if toks[j].kind == TokKind::Punct => depth += 1,
            ")" | "]" | "}" if toks[j].kind == TokKind::Punct => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Method names along the receiver chain feeding the method call at `i`,
/// nearest first: for `xs.iter().map(f).sum()` with `i` at `sum`, returns
/// `["map", "iter"]`. Walks backwards over `.name(…)`, `.name::<…>(…)`,
/// `.field`, and one trailing `(…)` group (parenthesised receivers like
/// `(0..n).map(f)`), stopping at anything else.
pub fn receiver_chain(toks: &[Tok], i: usize) -> Vec<&str> {
    let mut names = Vec::new();
    // j sits on the token *before* the `.` that precedes the ident at `i`.
    let mut j: isize = i as isize - 2;
    while j >= 0 {
        let t = &toks[j as usize];
        if t.is_punct(")") {
            // Scan back to the matching `(`.
            let mut depth = 0i32;
            let mut k = j;
            while k >= 0 {
                match toks[k as usize].text.as_str() {
                    ")" | "]" | "}" if toks[k as usize].kind == TokKind::Punct => depth += 1,
                    "(" | "[" | "{" if toks[k as usize].kind == TokKind::Punct => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k -= 1;
            }
            if k < 0 {
                break;
            }
            // `(…)` preceded by `ident` (a call) — possibly with a turbofish
            // between — or a bare parenthesised receiver.
            let mut m = k - 1;
            // Skip a `::<…>` turbofish backwards: `>` … `<` `:` `:`.
            if m >= 0 && toks[m as usize].is_punct(">") {
                let mut d = 0i32;
                while m >= 0 {
                    if toks[m as usize].is_punct(">") {
                        d += 1;
                    } else if toks[m as usize].is_punct("<") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    m -= 1;
                }
                m -= 1; // step off the `<` onto the `::` pair
                if m >= 0 && toks[m as usize].is_punct(":") {
                    m -= 1;
                }
                if m >= 0 && toks[m as usize].is_punct(":") {
                    m -= 1;
                }
            }
            if m >= 0 && toks[m as usize].kind == TokKind::Ident {
                names.push(toks[m as usize].text.as_str());
                // Continue only through a chained `.`: `recv.name(…)`.
                if m >= 1 && toks[m as usize - 1].is_punct(".") {
                    j = m - 2;
                    continue;
                }
                break;
            }
            // Parenthesised receiver like `(0..n)` — end of chain.
            break;
        }
        if t.kind == TokKind::Ident {
            // Field access or root variable: `self.data.iter()`.
            if j >= 1 && toks[j as usize - 1].is_punct(".") {
                j -= 2;
                continue;
            }
            break;
        }
        break;
    }
    names
}

/// Up to `limit` tokens of statement-local context *before* index `i`:
/// scans backwards, stopping at a `;` or `}` outside any bracket group (a
/// `{` does **not** stop the scan, so a function's return type stays
/// visible when the reduction is the body's tail expression).
pub fn statement_context(toks: &[Tok], i: usize, limit: usize) -> Vec<&Tok> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut j: isize = i as isize - 1;
    while j >= 0 && out.len() < limit {
        let t = &toks[j as usize];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" => depth += 1,
                "(" | "[" => depth -= 1,
                ";" | "}" if depth <= 0 => {
                    // Not the first statement in its block — the enclosing
                    // fn's signature (return type, param types) still
                    // carries the type evidence, so recover it separately.
                    out.extend(enclosing_signature(toks, j as usize));
                    return out;
                }
                _ => {}
            }
        }
        out.push(t);
        j -= 1;
    }
    out
}

/// Signature tokens of the fn whose body encloses index `i`: walks backwards
/// past balanced `{…}` blocks to the body's opening brace, then collects
/// from the preceding `fn` keyword up to that brace. Empty when no enclosing
/// fn is found (e.g. `i` sits at module scope).
fn enclosing_signature(toks: &[Tok], i: usize) -> Vec<&Tok> {
    let mut brace = 0i32;
    let mut j: isize = i as isize;
    while j >= 0 {
        let t = &toks[j as usize];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "}" => brace += 1,
                "{" => {
                    brace -= 1;
                    if brace < 0 {
                        let open = j as usize;
                        let mut k: isize = j - 1;
                        while k >= 0 {
                            let s = &toks[k as usize];
                            if s.is_ident("fn") {
                                return toks[k as usize..open].iter().collect();
                            }
                            if s.kind == TokKind::Punct
                                && matches!(s.text.as_str(), ";" | "{" | "}")
                            {
                                break;
                            }
                            k -= 1;
                        }
                        return Vec::new();
                    }
                }
                _ => {}
            }
        }
        j -= 1;
    }
    Vec::new()
}

/// `true` for a numeric literal token that is a float: has a fraction, a
/// decimal exponent, or an `f32`/`f64` suffix (hex/binary/octal literals
/// never count, so `0xdead` and `0b1e1` stay integers).
pub fn is_float_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0b") || lower.starts_with("0o") {
        return false;
    }
    if lower.contains('.') || lower.ends_with("f32") || lower.ends_with("f64") {
        return true;
    }
    // Decimal exponent: `e` followed by an optional sign and a digit —
    // suffixes containing an `e` (`1usize`) must not count.
    let b = lower.as_bytes();
    b.iter().enumerate().any(|(i, &c)| {
        c == b'e'
            && b.get(i + 1).is_some_and(|&n| {
                n.is_ascii_digit()
                    || ((n == b'-' || n == b'+') && b.get(i + 2).is_some_and(u8::is_ascii_digit))
            })
    })
}

/// Ident texts that mark a statement as floating-point arithmetic.
pub const FLOAT_HINTS: &[&str] = &["f64", "f32", "NEG_INFINITY", "INFINITY", "C64"];

/// Ident texts that mark a statement as integer arithmetic, exempting a
/// bare `.sum()` from the `float-fold` rule.
pub const INT_HINTS: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// `true` when `toks` (any iterable of token refs) contains float evidence:
/// a float literal or one of [`FLOAT_HINTS`].
pub fn has_float_evidence<'a>(toks: impl IntoIterator<Item = &'a Tok>) -> bool {
    toks.into_iter().any(|t| match t.kind {
        TokKind::Number => is_float_literal(&t.text),
        TokKind::Ident => FLOAT_HINTS.contains(&t.text.as_str()),
        _ => false,
    })
}

/// `true` when `toks` contains integer evidence: an integer-suffixed
/// literal or one of [`INT_HINTS`].
pub fn has_int_evidence<'a>(toks: impl IntoIterator<Item = &'a Tok>) -> bool {
    toks.into_iter().any(|t| match t.kind {
        TokKind::Number => {
            let lower = t.text.to_ascii_lowercase();
            INT_HINTS.iter().any(|s| lower.ends_with(s)) && !is_float_literal(&t.text)
        }
        TokKind::Ident => INT_HINTS.contains(&t.text.as_str()),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).tokens
    }

    fn idx(toks: &[Tok], name: &str) -> usize {
        toks.iter().position(|t| t.is_ident(name)).expect(name)
    }

    #[test]
    fn method_call_shapes() {
        let t = toks("let x = v.iter().sum::<f64>();");
        let sum = idx(&t, "sum");
        assert!(is_method_call(&t, sum));
        assert_eq!(turbofish_idents(&t, sum), vec!["f64"]);
        let t2 = toks("let sum = 3; fn sum() {}");
        assert!(!is_method_call(&t2, idx(&t2, "sum")));
    }

    #[test]
    fn receiver_chain_walks_adapters_and_fields() {
        let t = toks("let x = self.data.iter().map(|v| v * v).sum::<f64>();");
        let chain = receiver_chain(&t, idx(&t, "sum"));
        assert_eq!(chain, vec!["map", "iter"]);

        let t2 = toks("let y = (0..n).map(f).sum::<f64>();");
        let chain2 = receiver_chain(&t2, idx(&t2, "sum"));
        assert_eq!(chain2, vec!["map"]);

        let t3 = toks("let z = m.sum();");
        assert!(receiver_chain(&t3, idx(&t3, "sum")).is_empty());
    }

    #[test]
    fn statement_context_stops_at_statement_boundary() {
        let t = toks("fn f() -> u64 { other(); self.counts.iter().sum() }");
        let sum = idx(&t, "sum");
        let ctx = statement_context(&t, sum, 60);
        assert!(ctx.iter().any(|tk| tk.is_ident("counts")));
        assert!(
            ctx.iter().any(|tk| tk.is_ident("u64")),
            "return type visible through the body brace"
        );
        assert!(
            !ctx.iter().any(|tk| tk.is_ident("other")),
            "previous statement excluded: {:?}",
            ctx.iter().map(|t| &t.text).collect::<Vec<_>>()
        );
    }

    #[test]
    fn statement_context_ignores_semicolons_inside_closures() {
        let t = toks("let d: f64 = xs.iter().map(|v| { let q = v; q }).sum();");
        let ctx = statement_context(&t, idx(&t, "sum"), 60);
        assert!(
            ctx.iter().any(|tk| tk.is_ident("f64")),
            "scan must cross the closure-internal `;`"
        );
    }

    #[test]
    fn float_and_int_literal_classification() {
        assert!(is_float_literal("1.5"));
        assert!(is_float_literal("1e-6"));
        assert!(is_float_literal("2f64"));
        assert!(!is_float_literal("42"));
        assert!(
            !is_float_literal("1usize"),
            "the `e` in a suffix is not an exponent"
        );
        assert!(!is_float_literal("0xdead"));
        assert!(!is_float_literal("0b1e1"));

        let t = toks("let x: u64 = 3;");
        assert!(has_int_evidence(t.iter()));
        assert!(!has_float_evidence(t.iter()));
        let t2 = toks("let x = 0.5 * y;");
        assert!(has_float_evidence(t2.iter()));
    }
}
