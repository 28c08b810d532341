//! A compact textual term syntax for trees: `a(b c(d))`.
//!
//! Labels are sequences of characters other than whitespace and `()`.
//! Children are whitespace-separated inside parentheses; commas are also
//! accepted as separators for readability. The writer emits children in
//! **canonically sorted** order (by label string, then recursively), so
//! `to_text` is a stable display form for the *unordered* tree model —
//! isomorphic trees print identically.

use crate::{NodeId, Tree};
use std::fmt;

/// Deepest tree [`parse`] accepts, in edges below the root. Far beyond
/// any real document in term syntax, and shallow enough that the
/// recursive passes over a tree (this parser, rendering, the update
/// operations) cannot overflow a worker's stack on hostile input.
pub const MAX_DEPTH: usize = 1024;

/// Parse error for the term syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTreeError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tree parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseTreeError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseTreeError> {
        Err(ParseTreeError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace() || c == ',') {
            self.bump();
        }
    }

    fn label(&mut self) -> Result<&'a str, ParseTreeError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if !c.is_whitespace() && c != '(' && c != ')' && c != ',')
        {
            self.bump();
        }
        if self.pos == start {
            return self.err("expected a label");
        }
        Ok(&self.src[start..self.pos])
    }

    /// node := label ( '(' node* ')' )?, at `depth` below the root.
    fn node(
        &mut self,
        tree: &mut Tree,
        parent: NodeId,
        depth: usize,
    ) -> Result<(), ParseTreeError> {
        let label = self.label()?;
        let id = tree.build_child(parent, label);
        self.children(tree, id, depth)
    }

    fn children(
        &mut self,
        tree: &mut Tree,
        parent: NodeId,
        depth: usize,
    ) -> Result<(), ParseTreeError> {
        self.skip_ws();
        if self.peek() == Some('(') {
            if depth == self.max_depth {
                return self.err(format!("tree nests deeper than {} levels", self.max_depth));
            }
            self.bump();
            loop {
                self.skip_ws();
                match self.peek() {
                    Some(')') => {
                        self.bump();
                        break;
                    }
                    Some(_) => self.node(tree, parent, depth + 1)?,
                    None => return self.err("unclosed '('"),
                }
            }
        }
        Ok(())
    }
}

/// Parses the term syntax into a [`Tree`], refusing trees deeper than
/// [`MAX_DEPTH`] — the entry point for untrusted input. The modification
/// journal of the returned tree is empty.
pub fn parse(src: &str) -> Result<Tree, ParseTreeError> {
    parse_to_depth(src, MAX_DEPTH)
}

/// [`parse`] without the depth bound, for text this program rendered
/// itself (the store's log and snapshots): updates can grow a stored
/// tree past [`MAX_DEPTH`], and an acknowledged write must still
/// recover.
pub fn parse_stored(src: &str) -> Result<Tree, ParseTreeError> {
    parse_to_depth(src, usize::MAX)
}

fn parse_to_depth(src: &str, max_depth: usize) -> Result<Tree, ParseTreeError> {
    let mut p = Parser {
        src,
        pos: 0,
        max_depth,
    };
    p.skip_ws();
    let root_label = p.label()?;
    let mut tree = Tree::new(root_label);
    let root = tree.root();
    p.children(&mut tree, root, 0)?;
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing input after tree");
    }
    debug_assert!(tree.mod_sites().is_empty());
    Ok(tree)
}

/// Renders the subtree rooted at `n` in canonical (sorted) term syntax.
pub fn subtree_to_text(t: &Tree, n: NodeId) -> String {
    let mut out = String::new();
    write_node(t, n, &mut out);
    out
}

/// Renders the whole tree in canonical (sorted) term syntax.
pub fn to_text(t: &Tree) -> String {
    subtree_to_text(t, t.root())
}

fn write_node(t: &Tree, n: NodeId, out: &mut String) {
    out.push_str(t.label(n).as_str());
    if !t.children(n).is_empty() {
        let mut rendered: Vec<String> = t
            .children(n)
            .iter()
            .map(|&c| subtree_to_text(t, c))
            .collect();
        rendered.sort_unstable();
        out.push('(');
        for (i, r) in rendered.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(r);
        }
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let t = parse("a(b c(d))").unwrap();
        assert_eq!(to_text(&t), "a(b c(d))");
    }

    #[test]
    fn single_node() {
        let t = parse("root").unwrap();
        assert_eq!(t.live_count(), 1);
        assert_eq!(to_text(&t), "root");
    }

    #[test]
    fn commas_and_whitespace() {
        let t = parse("  a ( b , c(d,e) )  ").unwrap();
        assert_eq!(t.live_count(), 5);
    }

    #[test]
    fn canonical_output_sorts_children() {
        let t1 = parse("a(c b)").unwrap();
        let t2 = parse("a(b c)").unwrap();
        assert_eq!(to_text(&t1), to_text(&t2));
        assert_eq!(to_text(&t1), "a(b c)");
    }

    #[test]
    fn canonical_output_sorts_recursively() {
        let t1 = parse("a(b(z y) b(x))").unwrap();
        let t2 = parse("a(b(x) b(y z))").unwrap();
        assert_eq!(to_text(&t1), to_text(&t2));
    }

    #[test]
    fn error_unclosed() {
        let e = parse("a(b").unwrap_err();
        assert!(e.msg.contains("unclosed"), "{e}");
    }

    #[test]
    fn error_trailing() {
        let e = parse("a(b) c").unwrap_err();
        assert!(e.msg.contains("trailing"), "{e}");
    }

    #[test]
    fn error_empty() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn error_bare_parens() {
        assert!(parse("(a)").is_err());
    }

    #[test]
    fn labels_with_punctuation() {
        let t = parse("ns:book(_id x-1)").unwrap();
        assert_eq!(t.label(t.root()).as_str(), "ns:book");
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("a(");
        }
        s.push('b');
        for _ in 0..200 {
            s.push(')');
        }
        let t = parse(&s).unwrap();
        assert_eq!(t.live_count(), 201);
        assert_eq!(t.height(), 200);
    }

    #[test]
    fn depth_is_bounded() {
        let chain = |n: usize| "a(".repeat(n) + "b" + &")".repeat(n);
        assert_eq!(parse(&chain(MAX_DEPTH)).unwrap().height(), MAX_DEPTH);
        for n in [MAX_DEPTH + 1, 100_000] {
            let e = parse(&chain(n)).unwrap_err();
            assert!(e.msg.contains("deeper than"), "{e}");
        }
        // Width is not depth.
        assert!(parse(&format!("a({})", "b ".repeat(20_000))).is_ok());
        // Stored text is trusted: it parses past the bound.
        assert_eq!(
            parse_stored(&chain(MAX_DEPTH + 1)).unwrap().height(),
            MAX_DEPTH + 1
        );
    }
}
