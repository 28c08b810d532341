//! Parser and printer for the paper's XPath fragment:
//!
//! ```text
//! e  →  e/e  |  e//e  |  e[e]  |  e[.//e]  |  σ  |  *
//! ```
//!
//! The translation into tree patterns is the straightforward one the paper
//! omits: the main path becomes the spine (its last step is the output
//! node `𝒪(p)`), each predicate becomes a branch hanging off its step —
//! via a child edge for `[e]` and a descendant edge for `[.//e]` (we also
//! accept the common `[//e]` spelling).
//!
//! A leading `/` is optional (`/a/b` ≡ `a/b`: the first step is the
//! pattern root, which embeddings always map to the document root). A
//! leading `//` introduces an implicit `*` root with a descendant edge, so
//! `//book` selects book descendants of whatever the root is — matching
//! the paper's use of `$x//A`.

use crate::{Axis, PNodeId, Pattern};
use cxu_tree::Symbol;
use std::fmt;

/// Deepest pattern [`parse`] accepts: the most steps from the root down
/// to any node, spine steps and predicate nesting alike. Far beyond any
/// real query, and shallow enough that the recursive passes over a
/// pattern (parsing, interning, the detectors) cannot overflow a
/// worker's stack on hostile input.
pub const MAX_DEPTH: usize = 1024;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xpath error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for XPathError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XPathError> {
        Err(XPathError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if !c.is_whitespace() {
                break;
            }
            self.pos += c.len_utf8();
        }
    }

    fn label(&mut self) -> Result<Option<Symbol>, XPathError> {
        self.skip_ws();
        if self.eat("*") {
            return Ok(None);
        }
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || "_-.:@#=".contains(c)) {
            self.pos += self.peek().unwrap().len_utf8();
        }
        if self.pos == start {
            return self.err("expected a step label or '*'");
        }
        Ok(Some(Symbol::intern(&self.src[start..self.pos])))
    }

    /// Adds the step at `depth` below the root under `parent`, refusing
    /// patterns deeper than [`MAX_DEPTH`].
    fn add(
        &self,
        pat: &mut Pattern,
        parent: PNodeId,
        axis: Axis,
        label: Option<Symbol>,
        depth: usize,
    ) -> Result<PNodeId, XPathError> {
        if depth > MAX_DEPTH {
            return self.err(format!("pattern nests deeper than {MAX_DEPTH} steps"));
        }
        Ok(pat.add_child(parent, axis, label))
    }

    /// Parses the predicates of `cur` (the step at `depth`), then
    /// `(sep step predicates)*`; returns the last step (the local
    /// output).
    fn steps(
        &mut self,
        pat: &mut Pattern,
        mut cur: PNodeId,
        mut depth: usize,
    ) -> Result<PNodeId, XPathError> {
        self.predicates(pat, cur, depth)?;
        loop {
            self.skip_ws();
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") {
                Axis::Child
            } else {
                return Ok(cur);
            };
            let lbl = self.label()?;
            depth += 1;
            cur = self.add(pat, cur, axis, lbl, depth)?;
            self.predicates(pat, cur, depth)?;
        }
    }

    fn predicates(
        &mut self,
        pat: &mut Pattern,
        node: PNodeId,
        depth: usize,
    ) -> Result<(), XPathError> {
        loop {
            self.skip_ws();
            if !self.eat("[") {
                return Ok(());
            }
            self.skip_ws();
            let axis = if self.eat(".//") || self.eat("//") {
                Axis::Descendant
            } else {
                let _ = self.eat("./");
                Axis::Child
            };
            let lbl = self.label()?;
            let first = self.add(pat, node, axis, lbl, depth + 1)?;
            self.steps(pat, first, depth + 1)?;
            self.skip_ws();
            if !self.eat("]") {
                return self.err("expected ']'");
            }
        }
    }
}

/// Parses an expression of the paper's fragment into a [`Pattern`]. The
/// output node is the last step of the main path.
pub fn parse(src: &str) -> Result<Pattern, XPathError> {
    let mut p = Parser { src, pos: 0 };
    p.skip_ws();

    let synthetic = p.eat("//");
    let mut pat = if synthetic {
        Pattern::star()
    } else {
        let _ = p.eat("/");
        Pattern::new(p.label()?)
    };
    let root = pat.root();
    let out = if synthetic {
        // Implicit wildcard root with a descendant edge to the first step.
        let lbl = p.label()?;
        let first = p.add(&mut pat, root, Axis::Descendant, lbl, 1)?;
        p.steps(&mut pat, first, 1)?
    } else {
        p.steps(&mut pat, root, 0)?
    };
    pat.set_output(out);

    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing input after expression");
    }
    Ok(pat)
}

/// Renders a pattern back to the fragment's surface syntax.
///
/// The spine (root → output) becomes the main path; every off-spine child
/// becomes a predicate (`[x…]` for child edges, `[.//x…]` for descendant
/// edges), with branch-internal structure rendered as nested predicates.
/// `parse(to_xpath(p))` is structurally equal to `p` (predicate chains
/// like `a/b` normalize to `a[b]`, which denotes the same pattern tree).
pub fn to_xpath(p: &Pattern) -> String {
    let spine = p
        .path(p.root(), p.output())
        .expect("output is a descendant-or-self of the root");
    let on_spine = |n: PNodeId| spine.contains(&n);
    let mut out = String::new();
    for (i, &n) in spine.iter().enumerate() {
        if i > 0 {
            out.push_str(match p.axis(n).expect("spine step has an axis") {
                Axis::Child => "/",
                Axis::Descendant => "//",
            });
        }
        step(p, n, &on_spine, &mut out);
    }
    out
}

fn step(p: &Pattern, n: PNodeId, on_spine: &dyn Fn(PNodeId) -> bool, out: &mut String) {
    match p.label(n) {
        Some(s) => out.push_str(s.as_str()),
        None => out.push('*'),
    }
    for &c in p.children(n) {
        if on_spine(c) {
            continue;
        }
        out.push('[');
        if p.axis(c) == Some(Axis::Descendant) {
            out.push_str(".//");
        }
        branch(p, c, out);
        out.push(']');
    }
}

fn branch(p: &Pattern, n: PNodeId, out: &mut String) {
    match p.label(n) {
        Some(s) => out.push_str(s.as_str()),
        None => out.push('*'),
    }
    for &c in p.children(n) {
        out.push('[');
        if p.axis(c) == Some(Axis::Descendant) {
            out.push_str(".//");
        }
        branch(p, c, out);
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_path() {
        let p = parse("a/b//c").unwrap();
        assert_eq!(p.len(), 3);
        assert!(p.is_linear());
        assert_eq!(p.label(p.root()).unwrap().as_str(), "a");
        assert_eq!(p.label(p.output()).unwrap().as_str(), "c");
        assert_eq!(p.axis(p.output()), Some(Axis::Descendant));
    }

    #[test]
    fn leading_slash_optional() {
        let a = parse("/a/b").unwrap();
        let b = parse("a/b").unwrap();
        assert!(a.structurally_eq(&b));
    }

    #[test]
    fn leading_double_slash_synthesizes_star_root() {
        let p = parse("//book").unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.label(p.root()), None);
        assert_eq!(p.axis(p.output()), Some(Axis::Descendant));
        assert_eq!(p.label(p.output()).unwrap().as_str(), "book");
    }

    #[test]
    fn wildcards() {
        let p = parse("*/a/*").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.label(p.root()), None);
        assert_eq!(p.label(p.output()), None);
    }

    #[test]
    fn figure2_pattern() {
        // a[.//c]/b[d][*//f]
        let p = parse("a[.//c]/b[d][*//f]").unwrap();
        assert_eq!(p.len(), 6);
        assert!(!p.is_linear());
        let root = p.root();
        assert_eq!(p.children(root).len(), 2);
        // Output is the b step on the spine.
        assert_eq!(p.label(p.output()).unwrap().as_str(), "b");
        // The c branch hangs off the root with a descendant edge.
        let c_branch = p
            .children(root)
            .iter()
            .copied()
            .find(|&n| p.label(n).map(|s| s.as_str()) == Some("c"))
            .unwrap();
        assert_eq!(p.axis(c_branch), Some(Axis::Descendant));
        // b has predicate children d (child) and * (child) with f below.
        let b = p.output();
        assert_eq!(p.children(b).len(), 2);
    }

    #[test]
    fn predicate_with_inner_path() {
        // a[b/c] == a[b[c]]
        let p = parse("a[b/c]").unwrap();
        let q = parse("a[b[c]]").unwrap();
        assert!(p.structurally_eq(&q));
        assert_eq!(p.output(), p.root());
    }

    #[test]
    fn predicate_double_slash_spellings() {
        let a = parse("a[.//c]").unwrap();
        let b = parse("a[//c]").unwrap();
        assert!(a.structurally_eq(&b));
    }

    #[test]
    fn predicate_child_spellings() {
        let a = parse("a[./c]").unwrap();
        let b = parse("a[c]").unwrap();
        assert!(a.structurally_eq(&b));
    }

    #[test]
    fn nested_predicates() {
        let p = parse("a[b[.//c][d]]/e").unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.label(p.output()).unwrap().as_str(), "e");
    }

    #[test]
    fn whitespace_tolerated() {
        let p = parse(" a [ .// c ] / b ").unwrap();
        let q = parse("a[.//c]/b").unwrap();
        assert!(p.structurally_eq(&q));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("a[").is_err());
        assert!(parse("a]").is_err());
        assert!(parse("a/").is_err());
        assert!(parse("a b").is_err());
        assert!(parse("[a]").is_err());
    }

    #[test]
    fn depth_is_bounded_on_the_spine_and_in_predicates() {
        let spine = |n: usize| "a/".repeat(n) + "b";
        let nested = |n: usize| "a[".repeat(n) + "b" + &"]".repeat(n);
        assert_eq!(parse(&spine(MAX_DEPTH)).unwrap().len(), MAX_DEPTH + 1);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        for src in [spine(MAX_DEPTH + 1), nested(MAX_DEPTH + 1), spine(100_000)] {
            let e = parse(&src).unwrap_err();
            assert!(e.msg.contains("deeper than"), "{e}");
        }
        // Spine and predicates add up: a predicate hanging off a deep
        // spine step counts from the root.
        let mixed = "a/".repeat(MAX_DEPTH) + "b[c]";
        assert!(parse(&mixed).is_err());
        // Width is not depth.
        assert!(parse(&format!("a{}", "[b]".repeat(5000))).is_ok());
    }

    #[test]
    fn multibyte_whitespace_regression() {
        // Found by fuzzing: skip_ws advanced one byte per whitespace
        // char, slicing mid-codepoint on U+2003 (EM SPACE) and friends.
        for src in ["\u{2003}a/b", "a\u{2003}/\u{00A0}b", "\u{3000}*"] {
            let _ = parse(src); // must not panic
        }
        let p = parse("\u{2003}a/b").unwrap();
        assert!(p.structurally_eq(&parse("a/b").unwrap()));
    }

    #[test]
    fn roundtrip_linear() {
        for src in ["a/b//c", "*//x/*", "//book", "a"] {
            let p = parse(src).unwrap();
            let q = parse(&to_xpath(&p)).unwrap();
            assert!(p.structurally_eq(&q), "{src} → {} → ?", to_xpath(&p));
        }
    }

    #[test]
    fn roundtrip_branching() {
        for src in [
            "a[.//c]/b[d][*//f]",
            "a[b[c][.//d]]/e//f[g]",
            "*[.//x]//y[z[w]]",
        ] {
            let p = parse(src).unwrap();
            let q = parse(&to_xpath(&p)).unwrap();
            assert!(p.structurally_eq(&q), "{src} → {} → ?", to_xpath(&p));
        }
    }

    #[test]
    fn display_uses_xpath() {
        let p = parse("a/b").unwrap();
        assert_eq!(p.to_string(), "a/b");
    }

    #[test]
    fn spine_rendering_keeps_output() {
        let p = parse("a[x]/b").unwrap();
        let s = to_xpath(&p);
        let q = parse(&s).unwrap();
        assert_eq!(q.label(q.output()).unwrap().as_str(), "b");
    }
}
