//! # escudo-html
//!
//! A from-scratch HTML parser feeding the [`escudo_dom::Document`] arena.
//!
//! The parser is deliberately pragmatic (it is not a full HTML5 state machine) but it
//! covers everything the ESCUDO reproduction needs, including two behaviours that are
//! specific to the paper:
//!
//! * **Attributes on end tags.** ESCUDO's markup randomization repeats a nonce on the
//!   closing tag (`</div nonce=3847>`); ordinary HTML end tags carry no attributes, so
//!   the tokenizer supports them explicitly.
//! * **Node-splitting rejection at parse time.** When nonce validation is enabled, a
//!   `</div>` that does not repeat the nonce of the open AC tag is *ignored* — the
//!   injected "split" stays inside the low-privilege region, exactly as §5 of the paper
//!   prescribes. The [`ParseReport`] records every rejected end tag so tests and the
//!   security experiments can observe the defense firing.
//!
//! # Page build
//!
//! Building a page is linear in its bytes and in its nesting depth, and copies each
//! string at most once:
//!
//! * the [`Tokenizer`] borrows the input and scans byte offsets (every delimiter is
//!   ASCII, so each slice lands on a UTF-8 boundary). Each token string is allocated
//!   once from its slice: names lower-cased there, text and attribute values
//!   entity-decoded there;
//! * the tree builder moves each token's strings into the
//!   [`escudo_dom::Document`] arena (`Document::create_element_from_parts`,
//!   `create_text`) instead of copying them again. It reads end tags borrowed from
//!   the input (their name and nonce are all it needs), so they allocate nothing;
//! * appending a freshly created, childless node skips the DOM's ancestor walk, so
//!   the `n`-th level of nesting costs O(1), not O(n).
//!
//! # Example
//!
//! ```
//! use escudo_html::{parse_document, ParseOptions};
//!
//! let html = r#"<html><body><div ring="3" nonce="99">user content</div nonce="99"></body></html>"#;
//! let result = parse_document(html, &ParseOptions::default());
//! let doc = &result.document;
//! let divs = doc.elements_by_tag_name("div");
//! assert_eq!(divs.len(), 1);
//! assert_eq!(doc.attribute(divs[0], "ring"), Some("3"));
//! assert_eq!(result.report.rejected_end_tags, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod entities;
pub mod hints;
pub mod token;
pub mod tokenizer;

pub use builder::{parse_document, ParseOptions, ParseReport, ParseResult};
pub use hints::{critical_resources, prefetch_links};
pub use token::Token;
pub use tokenizer::Tokenizer;
