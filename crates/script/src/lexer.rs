//! The tokenizer for the ECMAScript subset.
//!
//! The lexer borrows its input and scans byte offsets: identifiers and string
//! literals without escapes are slices of the source, and operators are
//! matched on bytes without building a string per token. Every delimiter it
//! looks for is ASCII, so a multibyte character can never be split; it is
//! decoded only where the character itself matters (whitespace tests and error
//! messages). Lex-error positions count characters, not bytes, as they always
//! have.

use std::borrow::Cow;
use std::fmt;

use crate::error::ScriptError;

/// A script token. Identifiers and escape-free strings borrow from the source.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    /// Numeric literal.
    Number(f64),
    /// String literal (quotes removed, escapes processed).
    Str(Cow<'a, str>),
    /// Identifier (not a keyword).
    Ident(&'a str),
    // Keywords.
    /// `var`
    Var,
    /// `let`
    Let,
    /// `const`
    Const,
    /// `function`
    Function,
    /// `return`
    Return,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `true`
    True,
    /// `false`
    False,
    /// `null`
    Null,
    /// `undefined`
    Undefined,
    /// `new`
    New,
    /// `typeof`
    Typeof,
    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `===`
    EqEqEq,
    /// `!==`
    NotEqEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
    /// `++`
    PlusPlus,
    /// `--`
    MinusMinus,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Number(n) => write!(f, "{n}"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Ident(name) => write!(f, "{name}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A lex error at byte offset `at`, reported at its character index.
fn error(source: &str, message: String, at: usize) -> ScriptError {
    ScriptError::Lex {
        message,
        position: source[..at].chars().count(),
    }
}

/// Tokenizes a complete script.
///
/// # Errors
///
/// Returns [`ScriptError::Lex`] for unterminated strings/comments or unexpected
/// characters.
pub fn tokenize(source: &str) -> Result<Vec<Tok<'_>>, ScriptError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::with_capacity(source.len() / 3 + 1);
    let mut i = 0usize;

    while i < bytes.len() {
        let b = bytes[i];
        // Whitespace (Unicode whitespace, like `char::is_whitespace`).
        if b.is_ascii_whitespace() || b == 0x0b {
            i += 1;
            continue;
        }
        if b >= 0x80 {
            let c = source[i..].chars().next().expect("a char starts here");
            if c.is_whitespace() {
                i += c.len_utf8();
                continue;
            }
            return Err(error(source, format!("unexpected character `{c}`"), i));
        }
        let next = bytes.get(i + 1).copied();
        // Comments.
        if b == b'/' && next == Some(b'/') {
            i = source[i..].find('\n').map_or(bytes.len(), |n| i + n);
            continue;
        }
        if b == b'/' && next == Some(b'*') {
            match source[i + 2..].find("*/") {
                Some(end) => i += 2 + end + 2,
                None => {
                    return Err(error(source, "unterminated block comment".into(), i));
                }
            }
            continue;
        }
        // Strings.
        if b == b'"' || b == b'\'' {
            let (value, end) = string_literal(source, i)?;
            tokens.push(Tok::Str(value));
            i = end;
            continue;
        }
        // Numbers.
        if b.is_ascii_digit() || (b == b'.' && next.is_some_and(|d| d.is_ascii_digit())) {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                i += 1;
            }
            let text = &source[start..i];
            let number = text
                .parse::<f64>()
                .map_err(|_| error(source, format!("invalid number literal `{text}`"), start))?;
            tokens.push(Tok::Number(number));
            continue;
        }
        // Identifiers / keywords.
        if b.is_ascii_alphabetic() || b == b'_' || b == b'$' {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
            {
                i += 1;
            }
            tokens.push(keyword_or_ident(&source[start..i]));
            continue;
        }
        // Operators and punctuation (longest match first).
        let third = bytes.get(i + 2).copied();
        let (token, width) = match (b, next, third) {
            (b'=', Some(b'='), Some(b'=')) => (Tok::EqEqEq, 3),
            (b'!', Some(b'='), Some(b'=')) => (Tok::NotEqEq, 3),
            (b'=', Some(b'='), _) => (Tok::EqEq, 2),
            (b'!', Some(b'='), _) => (Tok::NotEq, 2),
            (b'<', Some(b'='), _) => (Tok::Le, 2),
            (b'>', Some(b'='), _) => (Tok::Ge, 2),
            (b'&', Some(b'&'), _) => (Tok::AndAnd, 2),
            (b'|', Some(b'|'), _) => (Tok::OrOr, 2),
            (b'+', Some(b'+'), _) => (Tok::PlusPlus, 2),
            (b'-', Some(b'-'), _) => (Tok::MinusMinus, 2),
            (b'+', Some(b'='), _) => (Tok::PlusAssign, 2),
            (b'-', Some(b'='), _) => (Tok::MinusAssign, 2),
            (b'(', ..) => (Tok::LParen, 1),
            (b')', ..) => (Tok::RParen, 1),
            (b'{', ..) => (Tok::LBrace, 1),
            (b'}', ..) => (Tok::RBrace, 1),
            (b'[', ..) => (Tok::LBracket, 1),
            (b']', ..) => (Tok::RBracket, 1),
            (b';', ..) => (Tok::Semi, 1),
            (b',', ..) => (Tok::Comma, 1),
            (b'.', ..) => (Tok::Dot, 1),
            (b':', ..) => (Tok::Colon, 1),
            (b'?', ..) => (Tok::Question, 1),
            (b'=', ..) => (Tok::Assign, 1),
            (b'+', ..) => (Tok::Plus, 1),
            (b'-', ..) => (Tok::Minus, 1),
            (b'*', ..) => (Tok::Star, 1),
            (b'/', ..) => (Tok::Slash, 1),
            (b'%', ..) => (Tok::Percent, 1),
            (b'<', ..) => (Tok::Lt, 1),
            (b'>', ..) => (Tok::Gt, 1),
            (b'!', ..) => (Tok::Not, 1),
            (other, ..) => {
                return Err(error(
                    source,
                    format!("unexpected character `{}`", char::from(other)),
                    i,
                ))
            }
        };
        tokens.push(token);
        i += width;
    }

    tokens.push(Tok::Eof);
    Ok(tokens)
}

/// Scans the string literal whose opening quote is at byte `start`. Returns
/// the value (borrowed when it has no escape) and the offset past the closing
/// quote.
fn string_literal(source: &str, start: usize) -> Result<(Cow<'_, str>, usize), ScriptError> {
    let bytes = source.as_bytes();
    let quote = bytes[start];
    let body = start + 1;
    let unterminated = || error(source, "unterminated string literal".into(), start);
    let Some(stop) = bytes[body..]
        .iter()
        .position(|&b| b == quote || b == b'\\')
        .map(|n| body + n)
    else {
        return Err(unterminated());
    };
    if bytes[stop] == quote {
        return Ok((Cow::Borrowed(&source[body..stop]), stop + 1));
    }
    let mut value = String::from(&source[body..stop]);
    let mut i = stop;
    loop {
        let Some(c) = source[i..].chars().next() else {
            return Err(unterminated());
        };
        if c == char::from(quote) {
            return Ok((Cow::Owned(value), i + 1));
        }
        if c == '\\' {
            let Some(escaped) = source[i + 1..].chars().next() else {
                return Err(error(source, "unterminated escape sequence".into(), start));
            };
            value.push(match escaped {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                '0' => '\0',
                other => other,
            });
            i += 1 + escaped.len_utf8();
            continue;
        }
        value.push(c);
        i += c.len_utf8();
    }
}

fn keyword_or_ident(word: &str) -> Tok<'_> {
    match word {
        "var" => Tok::Var,
        "let" => Tok::Let,
        "const" => Tok::Const,
        "function" => Tok::Function,
        "return" => Tok::Return,
        "if" => Tok::If,
        "else" => Tok::Else,
        "while" => Tok::While,
        "for" => Tok::For,
        "break" => Tok::Break,
        "continue" => Tok::Continue,
        "true" => Tok::True,
        "false" => Tok::False,
        "null" => Tok::Null,
        "undefined" => Tok::Undefined,
        "new" => Tok::New,
        "typeof" => Tok::Typeof,
        _ => Tok::Ident(word),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_representative_script() {
        let tokens =
            tokenize("var x = document.getElementById('main'); x.innerHTML += \"<b>hi</b>\";")
                .unwrap();
        assert!(tokens.contains(&Tok::Var));
        assert!(tokens.contains(&Tok::Ident("document")));
        assert!(tokens.contains(&Tok::Dot));
        assert!(tokens.contains(&Tok::Str("main".into())));
        assert!(tokens.contains(&Tok::PlusAssign));
        assert_eq!(*tokens.last().unwrap(), Tok::Eof);
    }

    #[test]
    fn numbers_and_operators() {
        let tokens = tokenize("1 + 2.5 * 3 === 8.5").unwrap();
        assert_eq!(
            tokens,
            vec![
                Tok::Number(1.0),
                Tok::Plus,
                Tok::Number(2.5),
                Tok::Star,
                Tok::Number(3.0),
                Tok::EqEqEq,
                Tok::Number(8.5),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let tokens = tokenize(r#"'a\'b' "c\n\t\\d""#).unwrap();
        assert_eq!(tokens[0], Tok::Str("a'b".into()));
        assert_eq!(tokens[1], Tok::Str("c\n\t\\d".into()));
    }

    #[test]
    fn identifiers_and_plain_strings_borrow_from_the_source() {
        let tokens = tokenize("greeting = 'hello'; other = 'esc\\'aped';").unwrap();
        assert!(matches!(tokens[2], Tok::Str(Cow::Borrowed("hello"))));
        assert!(matches!(tokens[6], Tok::Str(Cow::Owned(_))));
    }

    #[test]
    fn comments_are_skipped() {
        let tokens = tokenize("var a = 1; // trailing\n/* block\ncomment */ var b = 2;").unwrap();
        let idents: Vec<&Tok> = tokens
            .iter()
            .filter(|t| matches!(t, Tok::Ident(_)))
            .collect();
        assert_eq!(idents.len(), 2);
    }

    #[test]
    fn keywords_are_distinguished_from_identifiers() {
        let tokens =
            tokenize("function functionName(newValue) { return typeof newValue; }").unwrap();
        assert_eq!(tokens[0], Tok::Function);
        assert_eq!(tokens[1], Tok::Ident("functionName"));
        assert!(tokens.contains(&Tok::Ident("newValue")));
        assert!(tokens.contains(&Tok::Typeof));
    }

    #[test]
    fn errors_for_unterminated_constructs() {
        assert!(matches!(tokenize("'open"), Err(ScriptError::Lex { .. })));
        assert!(matches!(tokenize("/* open"), Err(ScriptError::Lex { .. })));
        assert!(matches!(
            tokenize("var x = @;"),
            Err(ScriptError::Lex { .. })
        ));
    }

    #[test]
    fn error_positions_count_characters() {
        let Err(ScriptError::Lex { position, message }) = tokenize("'日本' + é") else {
            panic!("expected a lex error");
        };
        assert_eq!(position, 7);
        assert_eq!(message, "unexpected character `é`");
        let Err(ScriptError::Lex { position, .. }) = tokenize("x = 'é\\") else {
            panic!("expected a lex error");
        };
        assert_eq!(position, 4);
    }

    #[test]
    fn increment_decrement_and_comparisons() {
        let tokens = tokenize("i++; j--; a <= b; c >= d; e != f; g !== h;").unwrap();
        assert!(tokens.contains(&Tok::PlusPlus));
        assert!(tokens.contains(&Tok::MinusMinus));
        assert!(tokens.contains(&Tok::Le));
        assert!(tokens.contains(&Tok::Ge));
        assert!(tokens.contains(&Tok::NotEq));
        assert!(tokens.contains(&Tok::NotEqEq));
    }
}
