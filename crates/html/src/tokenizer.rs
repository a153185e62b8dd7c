//! The HTML tokenizer.
//!
//! The tokenizer borrows its input and scans byte offsets. Every delimiter it looks
//! for (`<`, `>`, `/`, `=`, quotes, `-->`) is ASCII, so slicing at one always lands
//! on a UTF-8 boundary; a `char` is decoded only where `char::is_whitespace` has to
//! see a non-ASCII byte. Each token string is allocated once, from its source slice.

use escudo_dom::serialize::RAW_TEXT_ELEMENTS;

use crate::entities::decode_entities;
use crate::token::Token;

/// Scans a text run from `from`: returns the byte offset of the first `<` (or the end
/// of input) and whether a `&` comes before it. One pass, eight bytes per step, so a
/// run without character references is never scanned twice.
fn text_run(bytes: &[u8], from: usize) -> (usize, bool) {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    // The high bit of each byte equal to `byte`; bits above a match may be spurious,
    // the lowest set bit never is.
    let find = |word: u64, byte: u8| {
        let diff = word ^ (ONES * u64::from(byte));
        diff.wrapping_sub(ONES) & !diff & HIGHS
    };
    let mut at = from;
    let mut has_amp = false;
    let mut chunks = bytes[from..].chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
        let (lt, amp) = (find(word, b'<'), find(word, b'&'));
        if lt != 0 {
            let below_lt = (lt & lt.wrapping_neg()) - 1;
            return (
                at + lt.trailing_zeros() as usize / 8,
                has_amp || amp & below_lt != 0,
            );
        }
        has_amp |= amp != 0;
        at += 8;
    }
    for &byte in chunks.remainder() {
        if byte == b'<' {
            break;
        }
        has_amp |= byte == b'&';
        at += 1;
    }
    (at, has_amp)
}

/// A token as the tree builder reads it: a [`Token`], except that an end tag stays
/// borrowed from the input. The builder needs only an end tag's name and nonce, so
/// end tags cost it no allocation.
#[derive(Debug)]
pub(crate) enum Piece<'a> {
    /// Any token but an end tag.
    Token(Token),
    /// An end tag.
    EndTag {
        /// The tag name as written.
        name: &'a str,
        /// The raw value of the first `nonce` attribute, entities not decoded.
        nonce: Option<&'a str>,
        /// The source of the attribute list, through the closing `>`.
        attrs: &'a str,
    },
}

/// A streaming HTML tokenizer.
///
/// The tokenizer is browser-like: it never fails, it recovers from malformed markup by
/// emitting the closest sensible token (or plain text), and it supports the two ESCUDO
/// extensions described in the [crate docs](crate) — attributes on end tags and
/// raw-text handling that keeps scripts opaque to the markup around them.
#[derive(Debug, Clone)]
pub struct Tokenizer<'a> {
    input: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// When inside a raw-text element, the tag name whose end tag terminates the run.
    raw_text_until: Option<&'static str>,
    finished: bool,
    /// Scratch list of one tag's raw attributes, so a tag's attribute vector is
    /// allocated once, at its final length.
    raw_attrs: Vec<(&'a str, &'a str)>,
}

impl<'a> Tokenizer<'a> {
    /// Creates a tokenizer over the given input.
    #[must_use]
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            pos: 0,
            raw_text_until: None,
            finished: false,
            raw_attrs: Vec::new(),
        }
    }

    /// Tokenizes the entire input (convenience for tests).
    #[must_use]
    pub fn tokenize_all(input: &str) -> Vec<Token> {
        Tokenizer::new(input).collect()
    }

    /// Produces the next token, or [`Token::Eof`] exactly once at the end of input.
    pub fn next_token(&mut self) -> Token {
        match self.next_piece() {
            Piece::Token(token) => token,
            Piece::EndTag { name, attrs, .. } => Token::EndTag {
                name: name.to_ascii_lowercase(),
                attrs: Tokenizer::new(attrs).attributes().0,
            },
        }
    }

    /// Produces the next piece: [`Tokenizer::next_token`] without owning end tags.
    pub(crate) fn next_piece(&mut self) -> Piece<'a> {
        if let Some(tag) = self.raw_text_until.take() {
            if let Some(token) = self.raw_text(tag) {
                return Piece::Token(token);
            }
        }
        if self.pos >= self.input.len() {
            self.finished = true;
            return Piece::Token(Token::Eof);
        }
        if self.peek() != Some(b'<') {
            return Piece::Token(self.text());
        }
        Piece::Token(match self.bytes().get(self.pos + 1) {
            Some(b'!') => self.markup_declaration(),
            Some(b'/') => return self.end_tag(),
            Some(c) if c.is_ascii_alphabetic() => self.start_tag(),
            _ => {
                // A stray '<' is just text.
                self.pos += 1;
                Token::Text("<".to_string())
            }
        })
    }

    // ------------------------------------------------------------- primitives

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with_ci(&self, needle: &str) -> bool {
        self.bytes()
            .get(self.pos..self.pos + needle.len())
            .is_some_and(|window| window.eq_ignore_ascii_case(needle.as_bytes()))
    }

    /// Byte offset of the first occurrence of `needle` at or after the cursor, or the
    /// end of input.
    fn offset_of(&self, needle: char) -> usize {
        self.rest()
            .find(needle)
            .map_or(self.input.len(), |at| self.pos + at)
    }

    /// Returns the input from the cursor up to byte offset `end` and moves the cursor
    /// there.
    fn take_until(&mut self, end: usize) -> &'a str {
        let slice = &self.input[self.pos..end];
        self.pos = end;
        slice
    }

    /// Consumes `byte` when it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        if found {
            self.pos += 1;
        }
        found
    }

    /// Byte offset of the first character at or after the cursor that is whitespace
    /// or one of the ASCII `stops`, or the end of input.
    fn run_end(&self, stops: &[u8]) -> usize {
        let bytes = self.bytes();
        let mut at = self.pos;
        while let Some(&byte) = bytes.get(at) {
            if byte.is_ascii() {
                if stops.contains(&byte) || char::from(byte).is_whitespace() {
                    break;
                }
                at += 1;
            } else {
                let c = self.input[at..].chars().next().expect("at a char boundary");
                if c.is_whitespace() {
                    break;
                }
                at += c.len_utf8();
            }
        }
        at
    }

    fn skip_whitespace(&mut self) {
        let rest = self.rest();
        let trimmed = rest.trim_start_matches(char::is_whitespace);
        self.pos += rest.len() - trimmed.len();
    }

    // ------------------------------------------------------------- text modes

    /// Raw-text mode: collect everything up to `</tag` (case-insensitive). Returns
    /// `None` once the raw text has been consumed so the caller falls through to
    /// normal tag tokenization for the end tag itself.
    fn raw_text(&mut self, tag: &str) -> Option<Token> {
        let mut from = self.pos;
        let end = loop {
            let Some(at) = self.input[from..].find("</") else {
                break self.input.len();
            };
            let at = from + at;
            let name = self.bytes().get(at + 2..at + 2 + tag.len());
            if name.is_some_and(|name| name.eq_ignore_ascii_case(tag.as_bytes())) {
                break at;
            }
            from = at + 2;
        };
        // Whether or not we found the closing tag, raw-text mode is over: either the
        // end tag follows, or we hit EOF.
        let text = self.take_until(end);
        if text.is_empty() {
            None
        } else {
            Some(Token::Text(text.to_string()))
        }
    }

    fn text(&mut self) -> Token {
        let (end, has_entities) = text_run(self.bytes(), self.pos);
        let raw = self.take_until(end);
        Token::Text(if has_entities {
            decode_entities(raw).into_owned()
        } else {
            raw.to_string()
        })
    }

    // ------------------------------------------------------------- tags

    fn markup_declaration(&mut self) -> Token {
        if self.starts_with_ci("<!--") {
            self.pos += 4;
            let end = self
                .rest()
                .find("-->")
                .map_or(self.input.len(), |at| self.pos + at);
            let text = self.take_until(end).to_string();
            if self.starts_with_ci("-->") {
                self.pos += 3;
            }
            return Token::Comment(text);
        }
        if self.starts_with_ci("<!doctype") {
            self.pos += "<!doctype".len();
            self.skip_whitespace();
            let end = self.offset_of('>');
            let name = self.take_until(end).trim().to_string();
            self.eat(b'>');
            return Token::Doctype(name);
        }
        // Bogus comment: `<!…>`.
        self.pos += 2;
        let end = self.offset_of('>');
        let text = self.take_until(end).to_string();
        self.eat(b'>');
        Token::Comment(text)
    }

    fn tag_name(&mut self) -> &'a str {
        let end = self.bytes()[self.pos..]
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b':')))
            .map_or(self.input.len(), |len| self.pos + len);
        self.take_until(end)
    }

    fn start_tag(&mut self) -> Token {
        self.pos += 1; // consume '<'
        let name = self.tag_name().to_ascii_lowercase();
        let (attrs, self_closing) = self.attributes();
        if !self_closing {
            self.raw_text_until = RAW_TEXT_ELEMENTS.iter().copied().find(|t| *t == name);
        }
        Token::StartTag {
            name,
            attrs,
            self_closing,
        }
    }

    fn end_tag(&mut self) -> Piece<'a> {
        self.pos += 2; // consume '</'
        let name = self.tag_name();
        if name.is_empty() {
            // `</>` or `</ …>`: skip to '>' and treat as a comment-like no-op text.
            self.pos = self.offset_of('>');
            self.eat(b'>');
            return Piece::Token(Token::Text(String::new()));
        }
        let start = self.pos;
        let mut nonce = None;
        self.scan_attributes(|attr, value| {
            if nonce.is_none() && attr.eq_ignore_ascii_case("nonce") {
                nonce = Some(value);
            }
        });
        Piece::EndTag {
            name,
            nonce,
            attrs: &self.input[start..self.pos],
        }
    }

    /// Parses the attribute list of a tag up to and including the terminating `>`.
    /// Returns the attributes (names lower-cased, values decoded, the first of each
    /// name kept) and whether the tag was self-closing.
    fn attributes(&mut self) -> (Vec<(String, String)>, bool) {
        let mut raw = std::mem::take(&mut self.raw_attrs);
        let self_closing = self.scan_attributes(|name, value| {
            if !raw
                .iter()
                .any(|(existing, _)| existing.eq_ignore_ascii_case(name))
            {
                raw.push((name, value));
            }
        });
        let attrs = raw
            .drain(..)
            .map(|(name, value)| {
                (
                    name.to_ascii_lowercase(),
                    decode_entities(value).into_owned(),
                )
            })
            .collect();
        self.raw_attrs = raw;
        (attrs, self_closing)
    }

    /// Scans the attribute list of a tag up to and including the terminating `>`,
    /// handing each attribute's name as written and its raw value to `each`.
    /// Returns whether the tag was self-closing.
    fn scan_attributes(&mut self, mut each: impl FnMut(&'a str, &'a str)) -> bool {
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            match self.peek() {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.eat(b'>') {
                        self_closing = true;
                        break;
                    }
                }
                Some(_) => {
                    let end = self.run_end(b"=>/");
                    let name = self.take_until(end);
                    if name.is_empty() {
                        // A stray '=': skip it to guarantee progress.
                        self.pos += 1;
                        continue;
                    }
                    self.skip_whitespace();
                    let value = if self.eat(b'=') {
                        self.skip_whitespace();
                        self.attribute_value()
                    } else {
                        ""
                    };
                    each(name, value);
                }
            }
        }
        self_closing
    }

    /// The raw value of an attribute, without its quotes.
    fn attribute_value(&mut self) -> &'a str {
        match self.peek() {
            Some(quote @ (b'"' | b'\'')) => {
                self.pos += 1;
                let end = self.offset_of(char::from(quote));
                let value = self.take_until(end);
                self.eat(quote);
                value
            }
            _ => {
                let end = self.run_end(b">");
                self.take_until(end)
            }
        }
    }

    /// `true` once [`Token::Eof`] has been produced.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

impl Iterator for Tokenizer<'_> {
    type Item = Token;

    fn next(&mut self) -> Option<Token> {
        if self.finished {
            return None;
        }
        let token = self.next_token();
        if token == Token::Eof {
            self.finished = true;
            return None;
        }
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str, attrs: &[(&str, &str)]) -> Token {
        Token::StartTag {
            name: name.to_string(),
            attrs: attrs
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            self_closing: false,
        }
    }

    fn end(name: &str) -> Token {
        Token::EndTag {
            name: name.to_string(),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn simple_markup() {
        let tokens = Tokenizer::tokenize_all("<p class=\"x\">hello</p>");
        assert_eq!(
            tokens,
            vec![
                start("p", &[("class", "x")]),
                Token::Text("hello".into()),
                end("p"),
            ]
        );
    }

    #[test]
    fn attribute_quoting_styles() {
        let tokens = Tokenizer::tokenize_all("<div ring=2 r='1' w=\"0\" disabled>");
        assert_eq!(
            tokens,
            vec![start(
                "div",
                &[("ring", "2"), ("r", "1"), ("w", "0"), ("disabled", "")]
            )]
        );
    }

    #[test]
    fn duplicate_attributes_keep_the_first() {
        let tokens = Tokenizer::tokenize_all("<div ring=2 ring=0>");
        assert_eq!(tokens, vec![start("div", &[("ring", "2")])]);
    }

    #[test]
    fn end_tags_may_carry_attributes() {
        let tokens = Tokenizer::tokenize_all("<div nonce=12>x</div nonce=12>");
        assert_eq!(tokens[0], start("div", &[("nonce", "12")]));
        assert_eq!(
            tokens[2],
            Token::EndTag {
                name: "div".into(),
                attrs: vec![("nonce".into(), "12".into())],
            }
        );
    }

    #[test]
    fn self_closing_and_void_style_tags() {
        let tokens = Tokenizer::tokenize_all("<br/><img src=a.png />");
        assert_eq!(
            tokens,
            vec![
                Token::StartTag {
                    name: "br".into(),
                    attrs: vec![],
                    self_closing: true
                },
                Token::StartTag {
                    name: "img".into(),
                    attrs: vec![("src".into(), "a.png".into())],
                    self_closing: true
                },
            ]
        );
    }

    #[test]
    fn text_entities_are_decoded_but_script_content_is_raw() {
        let tokens =
            Tokenizer::tokenize_all("<p>a &amp; b</p><script>if (a &amp;&amp; b < c) {}</script>");
        assert_eq!(tokens[1], Token::Text("a & b".into()));
        // The script body is raw text: no entity decoding, '<' does not open a tag.
        assert_eq!(tokens[4], Token::Text("if (a &amp;&amp; b < c) {}".into()));
        assert_eq!(tokens[5], end("script"));
    }

    #[test]
    fn script_end_tag_is_found_case_insensitively() {
        let tokens = Tokenizer::tokenize_all("<SCRIPT>var x = '</div>';</ScRiPt>after");
        assert_eq!(tokens[0], start("script", &[]));
        assert_eq!(tokens[1], Token::Text("var x = '</div>';".into()));
        assert_eq!(tokens[2], end("script"));
        assert_eq!(tokens[3], Token::Text("after".into()));
    }

    #[test]
    fn comments_and_doctype() {
        let tokens = Tokenizer::tokenize_all("<!DOCTYPE html><!-- a comment --><p>x</p>");
        assert_eq!(tokens[0], Token::Doctype("html".into()));
        assert_eq!(tokens[1], Token::Comment(" a comment ".into()));
    }

    #[test]
    fn malformed_markup_degrades_to_text() {
        let tokens = Tokenizer::tokenize_all("a < b and 1 <2 <> <3");
        let text: String = tokens
            .iter()
            .filter_map(|t| match t {
                Token::Text(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        assert!(text.contains("a "));
        assert!(text.contains(" b and 1 "));
        // No panic and no tags were hallucinated.
        assert!(tokens.iter().all(|t| matches!(t, Token::Text(_))));
    }

    #[test]
    fn unterminated_structures_do_not_hang() {
        for input in [
            "<div",
            "<div attr",
            "<div attr=\"x",
            "<!-- never closed",
            "<script>never closed",
        ] {
            let tokens = Tokenizer::tokenize_all(input);
            assert!(!tokens.is_empty() || input.is_empty());
        }
    }

    #[test]
    fn eof_is_reported_once() {
        let mut tokenizer = Tokenizer::new("x");
        assert_eq!(tokenizer.next_token(), Token::Text("x".into()));
        assert_eq!(tokenizer.next_token(), Token::Eof);
        assert!(tokenizer.is_finished());
    }

    #[test]
    fn iterator_stops_at_eof() {
        let tokens: Vec<Token> = Tokenizer::new("<p>x</p>").collect();
        assert_eq!(tokens.len(), 3);
    }
}
