//! Lexer for the RC dialect.

use crate::error::{CompileError, ErrorKind};
use crate::token::{Spanned, Token};

/// Tokenises RC source text.
///
/// Supports `//` line comments and `/* ... */` block comments, decimal
/// integer literals, identifiers/keywords, and the operator set of
/// [`Token`].
///
/// # Errors
///
/// Returns a [`CompileError`] on an unrecognised character, an unterminated
/// block comment, or an integer literal that does not fit in `i64`.
pub fn lex(src: &str) -> Result<Vec<Spanned>, CompileError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($tok:expr) => {
            out.push(Spanned { tok: $tok, line })
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(CompileError::new(
                            ErrorKind::Lex,
                            start_line,
                            "unterminated block comment",
                        ));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let n: i64 = text.parse().map_err(|_| {
                    CompileError::new(
                        ErrorKind::Lex,
                        line,
                        format!("integer literal `{text}` out of range"),
                    )
                })?;
                push!(Token::Int(n));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                match Token::keyword(word) {
                    Some(t) => push!(t),
                    None => push!(Token::Ident(word.to_string())),
                }
            }
            '{' => {
                push!(Token::LBrace);
                i += 1;
            }
            '}' => {
                push!(Token::RBrace);
                i += 1;
            }
            '(' => {
                push!(Token::LParen);
                i += 1;
            }
            ')' => {
                push!(Token::RParen);
                i += 1;
            }
            '[' => {
                push!(Token::LBracket);
                i += 1;
            }
            ']' => {
                push!(Token::RBracket);
                i += 1;
            }
            ';' => {
                push!(Token::Semi);
                i += 1;
            }
            ',' => {
                push!(Token::Comma);
                i += 1;
            }
            '*' => {
                push!(Token::Star);
                i += 1;
            }
            '+' => {
                push!(Token::Plus);
                i += 1;
            }
            '%' => {
                push!(Token::Percent);
                i += 1;
            }
            '/' => {
                push!(Token::Slash);
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    push!(Token::Arrow);
                    i += 2;
                } else {
                    push!(Token::Minus);
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Token::Eq);
                    i += 2;
                } else {
                    push!(Token::Assign);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Token::Ne);
                    i += 2;
                } else {
                    push!(Token::Not);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Token::Le);
                    i += 2;
                } else {
                    push!(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push!(Token::Ge);
                    i += 2;
                } else {
                    push!(Token::Gt);
                    i += 1;
                }
            }
            '&' if bytes.get(i + 1) == Some(&b'&') => {
                push!(Token::AndAnd);
                i += 2;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                push!(Token::OrOr);
                i += 2;
            }
            other => {
                return Err(CompileError::new(
                    ErrorKind::Lex,
                    line,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    out.push(Spanned { tok: Token::Eof, line });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn lexes_figure1_fragment() {
        let t = toks("struct rlist { struct rlist *sameregion next; } *rl;");
        assert_eq!(
            t,
            vec![
                Token::KwStruct,
                Token::Ident("rlist".into()),
                Token::LBrace,
                Token::KwStruct,
                Token::Ident("rlist".into()),
                Token::Star,
                Token::KwSameRegion,
                Token::Ident("next".into()),
                Token::Semi,
                Token::RBrace,
                Token::Star,
                Token::Ident("rl".into()),
                Token::Semi,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        let t = toks("a->b == c != d <= e >= f && g || !h");
        assert!(t.contains(&Token::Arrow));
        assert!(t.contains(&Token::Eq));
        assert!(t.contains(&Token::Ne));
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::AndAnd));
        assert!(t.contains(&Token::OrOr));
        assert!(t.contains(&Token::Not));
    }

    #[test]
    fn comments_are_skipped_and_lines_tracked() {
        let s = lex("// one\n/* two\nthree */ x").unwrap();
        assert_eq!(s[0].tok, Token::Ident("x".into()));
        assert_eq!(s[0].line, 3);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn bad_character_is_an_error() {
        assert!(lex("a @ b").is_err());
    }

    #[test]
    fn huge_literal_is_an_error() {
        assert!(lex("99999999999999999999999999").is_err());
    }
}
