//! Source locations and spans.
//!
//! Every AST node produced by the parser carries a [`Span`] so that later
//! pipeline phases (the memop validator, the ordered type-and-effect system,
//! the backend) can report errors that point at the exact source text that
//! caused them. Actionable, source-level feedback is one of the paper's core
//! claims (§4, §5), so spans are threaded through the entire compiler.

use std::fmt;

/// A half-open byte range `[start, end)` into a single source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// A span covering nothing, used for synthesized nodes (e.g. code the
    /// compiler inserts during elaboration).
    pub const DUMMY: Span = Span { start: 0, end: 0 };

    /// Create a span from byte offsets.
    pub fn new(start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "span start {start} after end {end}");
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        if self == Span::DUMMY {
            return other;
        }
        if other == Span::DUMMY {
            return self;
        }
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span covers no characters.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A human-readable position: 1-based line and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCol {
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets in a source file back to lines and columns, and lets
/// diagnostics extract the offending line of text.
#[derive(Debug, Clone)]
pub struct SourceMap {
    /// Display name of the file (e.g. `stateful_firewall.lucid`).
    pub name: String,
    /// The complete source text.
    pub src: String,
    /// Byte offset of the start of each line. `line_starts[0] == 0`.
    line_starts: Vec<u32>,
}

impl SourceMap {
    /// Build a source map for `src`.
    pub fn new(name: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceMap {
            name: name.into(),
            src,
            line_starts,
        }
    }

    /// Translate a byte offset to a 1-based line/column pair.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = offset - self.line_starts[line_idx];
        LineCol {
            line: line_idx as u32 + 1,
            col: col + 1,
        }
    }

    /// The text of the (1-based) line number, without its trailing newline.
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line - 1) as usize;
        let start = self.line_starts[idx] as usize;
        let end = self
            .line_starts
            .get(idx + 1)
            .map_or(self.src.len(), |&e| e as usize);
        self.src[start..end].trim_end_matches('\n')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_prefers_extremes() {
        let a = Span::new(4, 8);
        let b = Span::new(6, 12);
        assert_eq!(a.merge(b), Span::new(4, 12));
        assert_eq!(b.merge(a), Span::new(4, 12));
    }

    #[test]
    fn merge_with_dummy_is_identity() {
        let a = Span::new(4, 8);
        assert_eq!(a.merge(Span::DUMMY), a);
        assert_eq!(Span::DUMMY.merge(a), a);
    }

    #[test]
    fn line_col_basic() {
        let sm = SourceMap::new("t", "ab\ncd\nef");
        assert_eq!(sm.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(sm.line_col(1), LineCol { line: 1, col: 2 });
        assert_eq!(sm.line_col(3), LineCol { line: 2, col: 1 });
        assert_eq!(sm.line_col(7), LineCol { line: 3, col: 2 });
    }

    #[test]
    fn line_text_strips_newline() {
        let sm = SourceMap::new("t", "ab\ncd\n");
        assert_eq!(sm.line_text(1), "ab");
        assert_eq!(sm.line_text(2), "cd");
    }

    #[test]
    fn snippet_roundtrip() {
        // A span's bytes and its start's line and column name one text,
        // which is what a rendered diagnostic relies on.
        let sm = SourceMap::new("t", "hello\nbig world");
        let span = Span::new(10, 15);
        assert_eq!(&sm.src[span.start as usize..span.end as usize], "world");
        let at = sm.line_col(span.start);
        assert_eq!(at, LineCol { line: 2, col: 5 });
        assert_eq!(&sm.line_text(at.line)[at.col as usize - 1..], "world");
    }

    #[test]
    fn line_count_counts_final_partial_line() {
        let sm = SourceMap::new("t", "a\nb\nc");
        assert_eq!(sm.line_col(4), LineCol { line: 3, col: 1 });
        assert_eq!(sm.line_text(3), "c");
    }
}
