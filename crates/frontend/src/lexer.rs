//! Hand-written lexer for Lucid source text.
//!
//! The lexer is a straightforward byte scanner. It supports `//` line
//! comments and `/* ... */` block comments, decimal and hexadecimal integer
//! literals, string literals for `printf`, and dotted identifiers such as
//! `Array.get` (which are lexed as a single [`TokenKind::Ident`] so that the
//! parser can treat builtin module calls uniformly).

use crate::diag::Diagnostic;
use crate::span::Span;
use crate::token::{keyword, Token, TokenKind};

/// Lex `src` completely, returning either the token stream (terminated by a
/// single [`TokenKind::Eof`]) or the first lexical error.
pub fn lex(src: &str) -> Result<Vec<Token>, Diagnostic> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(start as u32, self.pos as u32)
    }

    fn run(mut self) -> Result<Vec<Token>, Diagnostic> {
        // Lucid source runs four to five bytes per token (the bundled apps
        // 4.0–5.2), so this one allocation usually holds every token.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            if self.pos >= self.src.len() {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: self.span_from(start),
                });
                return Ok(out);
            }
            let kind = self.token()?;
            out.push(Token {
                kind,
                span: self.span_from(start),
            });
        }
    }

    /// Skip whitespace and comments.
    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.src.len() && self.peek() != b'\n' {
                        self.bump();
                    }
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.pos;
                    self.bump();
                    self.bump();
                    loop {
                        if self.pos >= self.src.len() {
                            return Err(Diagnostic::error(
                                "unterminated block comment",
                                self.span_from(start),
                            ));
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn token(&mut self) -> Result<TokenKind, Diagnostic> {
        use TokenKind::*;
        let start = self.pos;
        let b = self.bump();
        Ok(match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b',' => Comma,
            b';' => Semi,
            b'+' => Plus,
            b'-' => Minus,
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'^' => Caret,
            b'~' => Tilde,
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    AndAnd
                } else {
                    Amp
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    OrOr
                } else {
                    Pipe
                }
            }
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    EqEq
                } else {
                    Assign
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.bump();
                    NotEq
                } else {
                    Bang
                }
            }
            b'<' => match self.peek() {
                b'<' => {
                    self.bump();
                    Shl
                }
                b'=' => {
                    self.bump();
                    Le
                }
                _ => Lt,
            },
            b'>' => match self.peek() {
                b'>' => {
                    self.bump();
                    Shr
                }
                b'=' => {
                    self.bump();
                    Ge
                }
                _ => Gt,
            },
            b'"' => {
                // Accumulate raw bytes so multi-byte UTF-8 sequences pass
                // through intact; the source is valid UTF-8 and escapes
                // are ASCII, so the result always re-validates.
                let mut bytes = Vec::new();
                loop {
                    if self.pos >= self.src.len() {
                        return Err(Diagnostic::error(
                            "unterminated string literal",
                            self.span_from(start),
                        ));
                    }
                    match self.bump() {
                        b'"' => break,
                        b'\\' => {
                            let esc = self.bump();
                            bytes.push(match esc {
                                b'n' => b'\n',
                                b't' => b'\t',
                                b'\\' => b'\\',
                                b'"' => b'"',
                                other => {
                                    return Err(Diagnostic::error(
                                        format!("unknown escape `\\{}`", other as char),
                                        self.span_from(start),
                                    ))
                                }
                            });
                        }
                        other => bytes.push(other),
                    }
                }
                Str(String::from_utf8(bytes).expect("source is valid UTF-8"))
            }
            b'0'..=b'9' => {
                self.pos -= 1;
                self.number()?
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                self.pos -= 1;
                self.ident()
            }
            other => {
                return Err(Diagnostic::error(
                    format!("unexpected character `{}`", other as char),
                    self.span_from(start),
                ))
            }
        })
    }

    fn number(&mut self) -> Result<TokenKind, Diagnostic> {
        let start = self.pos;
        let radix = if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.bump();
            self.bump();
            16
        } else {
            10
        };
        let digits_start = self.pos;
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.bump();
        }
        let digits = self.str_from(digits_start);
        let parsed = if digits.contains('_') {
            u64::from_str_radix(&digits.replace('_', ""), radix)
        } else {
            u64::from_str_radix(digits, radix)
        };
        match parsed {
            Ok(n) => Ok(TokenKind::Int(n)),
            Err(_) => Err(Diagnostic::error(
                format!("invalid integer literal `{}`", self.str_from(start)),
                self.span_from(start),
            )),
        }
    }

    /// Lex an identifier, keyword, or dotted path (`Array.get`, `Event.delay`,
    /// `Sys.time`). Dotted segments are only consumed when the next segment
    /// starts with an identifier character, so `x.` followed by punctuation
    /// is an error at parse time, not lex time.
    fn ident(&mut self) -> TokenKind {
        let start = self.pos;
        while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
            self.bump();
        }
        // Dotted builtin path: keep consuming `.segment`.
        while self.peek() == b'.' && (self.peek2().is_ascii_alphabetic() || self.peek2() == b'_') {
            self.bump();
            while self.peek().is_ascii_alphanumeric() || self.peek() == b'_' {
                self.bump();
            }
        }
        let text = self.str_from(start);
        if !text.contains('.') {
            if let Some(kw) = keyword(text) {
                return kw;
            }
        }
        TokenKind::Ident(text.to_string())
    }

    fn str_from(&self, start: usize) -> &'a str {
        std::str::from_utf8(&self.src[start..self.pos]).expect("source is valid UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            kinds("const int SIZE = 16;"),
            vec![
                KwConst,
                KwInt,
                Ident("SIZE".into()),
                Assign,
                Int(16),
                Semi,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_dotted_builtins() {
        assert_eq!(
            kinds("Array.get(a, 0)"),
            vec![
                Ident("Array.get".into()),
                LParen,
                Ident("a".into()),
                Comma,
                Int(0),
                RParen,
                Eof
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("a << 2 >> b <= c >= d == e != f && g || h"),
            vec![
                Ident("a".into()),
                Shl,
                Int(2),
                Shr,
                Ident("b".into()),
                Le,
                Ident("c".into()),
                Ge,
                Ident("d".into()),
                EqEq,
                Ident("e".into()),
                NotEq,
                Ident("f".into()),
                AndAnd,
                Ident("g".into()),
                OrOr,
                Ident("h".into()),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_hex_and_underscores() {
        assert_eq!(kinds("0xFF 1_000"), vec![Int(255), Int(1000), Eof]);
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("1 // line\n/* block\n comment */ 2"),
            vec![Int(1), Int(2), Eof]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""a\nb\"c""#), vec![Str("a\nb\"c".into()), Eof]);
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(lex("/* oops").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn unknown_char_is_error() {
        let err = lex("int @x;").unwrap_err();
        assert!(err.message.contains('@'));
    }

    #[test]
    fn spans_are_accurate() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
    }

    #[test]
    fn keywords_not_matched_inside_dotted_paths() {
        // `if.x` should stay a dotted identifier, not keyword `if`.
        assert_eq!(kinds("ifx"), vec![Ident("ifx".into()), Eof]);
    }
}
