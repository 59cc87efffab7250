//! Compiler diagnostics.
//!
//! Lucid's design thesis (§4, §5 of the paper) is that data-plane programming
//! errors should be caught *early*, on *untransformed source*, with messages
//! that pinpoint the exact construct at fault — instead of surfacing as
//! cryptic failures in a target-specific backend. Every phase of this
//! compiler therefore reports through [`Diagnostic`], which renders with the
//! offending source line and a caret underline.

use crate::json::{self, Writer};
use crate::span::{SourceMap, Span};
use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Informational note attached to another diagnostic.
    Note,
    /// Suspicious but not fatal; compilation continues.
    Warning,
    /// Fatal; the phase that raised it fails.
    Error,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Note => write!(f, "note"),
            Level::Warning => write!(f, "warning"),
            Level::Error => write!(f, "error"),
        }
    }
}

/// A single diagnostic message with an optional primary span and any number
/// of secondary notes (e.g. "array was declared here").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub level: Level,
    /// Stable machine-readable code, assigned by the emitting phase.
    /// Errors use `E0xxx` (`E01xx` lexer/parser, `E02xx` symbols, `E03xx`
    /// memops, `E04xx` type-and-effect, `E06xx` elaboration, `E07xx`
    /// layout); warnings use `W0xxx` (`W00xx` checker dead-code, `W05xx`
    /// the lint pass); the bytecode verifier uses `V00xx`. The
    /// code-registry test pins every emitted code to these ranges.
    pub code: Option<&'static str>,
    pub message: String,
    /// Primary location of the problem.
    pub span: Option<Span>,
    /// Secondary labelled locations, rendered after the primary one.
    pub notes: Vec<(String, Option<Span>)>,
}

impl Diagnostic {
    /// A fatal error at `span`.
    pub fn error(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            level: Level::Error,
            code: None,
            message: message.into(),
            span: Some(span),
            notes: Vec::new(),
        }
    }

    /// A fatal error with no location (e.g. "no main handler defined").
    pub fn error_global(message: impl Into<String>) -> Self {
        Diagnostic {
            level: Level::Error,
            code: None,
            message: message.into(),
            span: None,
            notes: Vec::new(),
        }
    }

    /// A warning at `span`.
    pub fn warning(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            level: Level::Warning,
            code: None,
            message: message.into(),
            span: Some(span),
            notes: Vec::new(),
        }
    }

    /// Set the stable diagnostic code.
    pub fn with_code(mut self, code: &'static str) -> Self {
        self.code = Some(code);
        self
    }

    /// Set the code only if none was assigned yet — phases use this to give
    /// every diagnostic at least a phase-level code at their boundary.
    pub fn or_code(mut self, code: &'static str) -> Self {
        self.code.get_or_insert(code);
        self
    }

    /// Attach a secondary note pointing at `span`.
    pub fn with_note(mut self, message: impl Into<String>, span: Span) -> Self {
        self.notes.push((message.into(), Some(span)));
        self
    }

    /// Attach a free-floating note.
    pub fn with_help(mut self, message: impl Into<String>) -> Self {
        self.notes.push((message.into(), None));
        self
    }

    /// Render this diagnostic against `sm` in a rustc-like format:
    ///
    /// ```text
    /// error: arrays accessed out of declaration order
    ///   --> fw.lucid:9:13
    ///    |
    ///  9 |     int x = Array.get(arr1, idx);
    ///    |             ^^^^^^^^^^^^^^^^^^^^
    ///    = note: arr2 (declared earlier) was already accessed at 8:13
    /// ```
    pub fn render(&self, sm: &SourceMap) -> String {
        let mut out = String::new();
        match self.code {
            Some(code) => out.push_str(&format!("{}[{code}]: {}\n", self.level, self.message)),
            None => out.push_str(&format!("{}: {}\n", self.level, self.message)),
        }
        if let Some(span) = self.span {
            render_span(&mut out, sm, span);
        }
        for (msg, nspan) in &self.notes {
            out.push_str(&format!("  = note: {msg}\n"));
            if let Some(nspan) = nspan {
                render_span(&mut out, sm, *nspan);
            }
        }
        out
    }
}

impl Diagnostic {
    /// Serialize to a JSON object against `sm`, for tooling (`lucidc
    /// --json-diagnostics`, editors, CI annotations). Spans carry both byte
    /// offsets and 1-based line/column resolved through the source map.
    pub fn to_json(&self, sm: &SourceMap) -> String {
        json::write(|w| self.write_json(w, sm))
    }

    fn write_json(&self, w: &mut Writer, sm: &SourceMap) {
        w.obj(|w| {
            w.key("severity").str(&self.level.to_string()).key("code");
            match self.code {
                Some(c) => w.str(c),
                None => w.null(),
            };
            w.key("message").str(&self.message).key("span");
            json_span(w, sm, self.span);
            w.key("notes").arr(|w| {
                for (msg, nspan) in &self.notes {
                    w.obj(|w| {
                        w.key("message").str(msg).key("span");
                        json_span(w, sm, *nspan);
                    });
                }
            });
        });
    }
}

fn json_span(w: &mut Writer, sm: &SourceMap, span: Option<Span>) {
    let Some(s) = span else {
        w.null();
        return;
    };
    let lc = sm.line_col(s.start);
    w.obj(|w| {
        w.key("file").str(&sm.name);
        w.key("start").u64(s.start.into());
        w.key("end").u64(s.end.into());
        w.key("line").u64(lc.line.into());
        w.key("col").u64(lc.col.into());
    });
}

fn render_span(out: &mut String, sm: &SourceMap, span: Span) {
    let lc = sm.line_col(span.start);
    out.push_str(&format!("  --> {}:{}:{}\n", sm.name, lc.line, lc.col));
    let line = sm.line_text(lc.line);
    let gutter = format!("{:>4}", lc.line);
    out.push_str(&format!("{} |\n", " ".repeat(gutter.len())));
    out.push_str(&format!("{gutter} | {line}\n"));
    let col = (lc.col - 1) as usize;
    // Clamp the underline to the end of the line: multi-line spans underline
    // only their first line.
    let end_lc = sm.line_col(span.end.saturating_sub(1).max(span.start));
    let width = if end_lc.line == lc.line {
        span.len().max(1).min(line.len().saturating_sub(col).max(1))
    } else {
        line.len().saturating_sub(col).max(1)
    };
    out.push_str(&format!(
        "{} | {}{}\n",
        " ".repeat(gutter.len()),
        " ".repeat(col),
        "^".repeat(width)
    ));
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.level, self.message)
    }
}

impl std::error::Error for Diagnostic {}

/// An ordered collection of diagnostics produced by one phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.level == Level::Error)
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Give every code-less diagnostic the phase-level default `code`.
    /// Called at phase boundaries so downstream tooling always sees a code.
    pub fn or_code_all(mut self, code: &'static str) -> Self {
        for d in &mut self.items {
            d.code.get_or_insert(code);
        }
        self
    }

    /// Append all of `other`'s diagnostics.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Promote every warning to an error (`lucidc --deny-lints`). Codes,
    /// messages, and notes are untouched — only the severity changes.
    pub fn promote_warnings_to_errors(&mut self) {
        for d in &mut self.items {
            if d.level == Level::Warning {
                d.level = Level::Error;
            }
        }
    }

    /// Number of error-level diagnostics.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.level == Level::Error)
            .count()
    }

    /// Render all diagnostics, separated by blank lines.
    pub fn render(&self, sm: &SourceMap) -> String {
        self.items
            .iter()
            .map(|d| d.render(sm))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Serialize the whole collection as a JSON array.
    pub fn to_json(&self, sm: &SourceMap) -> String {
        json::write(|w| {
            w.arr(|w| {
                for d in &self.items {
                    d.write_json(w, sm);
                }
            });
        })
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.items {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostics {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_points_at_source() {
        let sm = SourceMap::new("t.lucid", "int x = 3;\nint y = z;\n");
        let d = Diagnostic::error("unbound variable z", Span::new(19, 20));
        let r = d.render(&sm);
        assert!(r.contains("error: unbound variable z"), "{r}");
        assert!(r.contains("t.lucid:2:9"), "{r}");
        assert!(r.contains("int y = z;"), "{r}");
        assert!(r.contains("        ^"), "{r}");
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::warning("meh", Span::new(0, 1)));
        assert!(!ds.has_errors());
        ds.push(Diagnostic::error("bad", Span::new(0, 1)));
        assert!(ds.has_errors());
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn code_renders_in_brackets() {
        let sm = SourceMap::new("t.lucid", "int x = 3;\n");
        let d = Diagnostic::error("bad", Span::new(0, 3)).with_code("E0401");
        assert!(
            d.render(&sm).starts_with("error[E0401]: bad"),
            "{}",
            d.render(&sm)
        );
        // or_code does not overwrite an explicit code.
        let d2 = d.or_code("E0400");
        assert_eq!(d2.code, Some("E0401"));
    }

    #[test]
    fn json_escapes_and_resolves_spans() {
        let sm = SourceMap::new("t.lucid", "int x = \"a\";\nint y = z;\n");
        let d = Diagnostic::error("unbound \"z\"", Span::new(21, 22))
            .with_code("E0400")
            .with_help("declare it");
        let j = d.to_json(&sm);
        assert!(j.contains("\"severity\":\"error\""), "{j}");
        assert!(j.contains("\"code\":\"E0400\""), "{j}");
        assert!(j.contains("\"message\":\"unbound \\\"z\\\"\""), "{j}");
        assert!(j.contains("\"line\":2"), "{j}");
        assert!(j.contains("\"col\":9"), "{j}");
        assert!(
            j.contains("\"notes\":[{\"message\":\"declare it\",\"span\":null}]"),
            "{j}"
        );
        let mut ds = Diagnostics::new();
        ds.push(d);
        let arr = ds.to_json(&sm);
        assert!(arr.starts_with('[') && arr.ends_with(']'), "{arr}");
    }

    #[test]
    fn notes_render_after_primary() {
        let sm = SourceMap::new("t.lucid", "global a = new Array<<32>>(4);\n");
        let d = Diagnostic::error("disordered access", Span::new(0, 6))
            .with_note("declared here", Span::new(7, 8))
            .with_help("reorder the declarations");
        let r = d.render(&sm);
        let primary = r.find("disordered access").unwrap();
        let note = r.find("declared here").unwrap();
        let help = r.find("reorder the declarations").unwrap();
        assert!(primary < note && note < help);
    }
}
