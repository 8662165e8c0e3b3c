//! The mini-C lexer.

use crate::CcError;

/// A token with its source line (1-based), used for error reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    /// The token proper.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Integer literal.
    Number(i64),
    /// Identifier or keyword carrier.
    Ident(String),
    /// `fn`, `var`, `if`, `else`, `while`, `return`, `out`.
    Keyword(&'static str),
    /// Single punctuation / operator token.
    Punct(&'static str),
    /// End of input.
    Eof,
}

const KEYWORDS: [&str; 7] = ["fn", "var", "if", "else", "while", "return", "out"];

/// Multi-character operators, longest first.
const OPERATORS: [&str; 10] = ["<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "(", ")"];
const SINGLE: [char; 16] = [
    '(', ')', '{', '}', '[', ']', ',', ';', '=', '+', '-', '*', '&', '|', '^', '<',
];

/// Tokenises `source`.
///
/// # Errors
///
/// Returns [`CcError::Lex`] for characters the language does not use.
pub(crate) fn lex(source: &str) -> Result<Vec<Token>, CcError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments: // … and # … to end of line.
        if c == '#' || (c == '/' && bytes.get(i + 1) == Some(&'/')) {
            while i < bytes.len() && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            let value: i64 = text.parse().map_err(|_| {
                CcError::lex(line, format!("integer literal `{text}` is too large"))
            })?;
            tokens.push(Token {
                kind: TokenKind::Number(value),
                line,
            });
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                i += 1;
            }
            let text: String = bytes[start..i].iter().collect();
            let kind = match KEYWORDS.iter().find(|k| **k == text) {
                Some(k) => TokenKind::Keyword(k),
                None => TokenKind::Ident(text),
            };
            tokens.push(Token { kind, line });
            continue;
        }
        // Two-character operators.
        if i + 1 < bytes.len() {
            let pair: String = bytes[i..i + 2].iter().collect();
            if let Some(op) = OPERATORS.iter().find(|o| **o == pair && o.len() == 2) {
                tokens.push(Token {
                    kind: TokenKind::Punct(op),
                    line,
                });
                i += 2;
                continue;
            }
        }
        let single = match c {
            '(' => "(",
            ')' => ")",
            '{' => "{",
            '}' => "}",
            '[' => "[",
            ']' => "]",
            ',' => ",",
            ';' => ";",
            '=' => "=",
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '&' => "&",
            '|' => "|",
            '^' => "^",
            '<' => "<",
            '>' => ">",
            '!' => "!",
            _ => {
                let _ = SINGLE; // documented set; the match above is the source of truth
                return Err(CcError::lex(line, format!("unexpected character `{c}`")));
            }
        };
        tokens.push(Token {
            kind: TokenKind::Punct(single),
            line,
        });
        i += 1;
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_small_function() {
        let toks = kinds("fn add(a, b) { return a + b; }");
        assert_eq!(toks[0], TokenKind::Keyword("fn"));
        assert_eq!(toks[1], TokenKind::Ident("add".into()));
        assert!(toks.contains(&TokenKind::Punct("+")));
        assert_eq!(*toks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn numbers_operators_and_comments() {
        let toks = kinds("x = 42 << 2; // shift\n# another comment\ny = x >= 10;");
        assert!(toks.contains(&TokenKind::Number(42)));
        assert!(toks.contains(&TokenKind::Punct("<<")));
        assert!(toks.contains(&TokenKind::Punct(">=")));
        assert!(!toks
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(s) if s == "shift")));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn unknown_characters_are_rejected() {
        let err = lex("a = 1 @ 2;").unwrap_err();
        assert!(matches!(err, CcError::Lex { line: 1, .. }));
        let err = lex("x\ny = $3;").unwrap_err();
        assert!(matches!(err, CcError::Lex { line: 2, .. }));
    }

    #[test]
    fn keywords_are_distinguished_from_identifiers() {
        let toks = kinds("while whilex");
        assert_eq!(toks[0], TokenKind::Keyword("while"));
        assert_eq!(toks[1], TokenKind::Ident("whilex".into()));
    }
}
