//! Resource-hint and critical-resource extraction from parsed markup.
//!
//! The unified fetch scheduler needs two document-order views of a page that
//! plain tag queries cannot give it (they are per-tag, and scheduling cares
//! about the *interleaved* order):
//!
//! * [`critical_resources`] — the render-blocking external subresources
//!   (`<link rel="stylesheet" href>` and `<script src>`) that ride the
//!   navigation lane of the fetch pool, ahead of bulk image traffic;
//! * [`prefetch_links`] — `<link rel="prefetch" href>` speculation hints, the
//!   markup half of the browser's visited-link predictor, which ride the
//!   background lane.
//!
//! `rel` is a space-separated, ASCII case-insensitive token list per the HTML
//! spec, so `<link rel="Prefetch dns-prefetch">` counts.

use escudo_dom::{Document, NodeId};

/// `true` when `rel`'s space-separated token list contains `token`
/// (ASCII case-insensitive, per the HTML spec's link-type matching).
fn rel_contains(rel: &str, token: &str) -> bool {
    rel.split_ascii_whitespace()
        .any(|t| t.eq_ignore_ascii_case(token))
}

/// Non-empty `href`/`src`-style attribute of `id`, if present.
fn resource_attr<'d>(document: &'d Document, id: NodeId, attr: &str) -> Option<&'d str> {
    document.attribute(id, attr).filter(|v| !v.is_empty())
}

/// The render-critical external subresources of the document —
/// `<link rel="stylesheet" href=…>` and `<script src=…>` — in document order,
/// as `(node, url)` pairs. Inline scripts (no `src`) and links without an
/// `href` are not resources and are skipped.
#[must_use]
pub fn critical_resources(document: &Document) -> Vec<(NodeId, String)> {
    document
        .descendants(document.root())
        .filter_map(|id| match document.tag_name(id) {
            Some("link") => {
                let rel = document.attribute(id, "rel")?;
                if !rel_contains(rel, "stylesheet") {
                    return None;
                }
                resource_attr(document, id, "href").map(|href| (id, href.to_string()))
            }
            Some("script") => resource_attr(document, id, "src").map(|src| (id, src.to_string())),
            _ => None,
        })
        .collect()
}

/// The document's `<link rel="prefetch" href=…>` speculation hints, in
/// document order, as `(node, url)` pairs.
#[must_use]
pub fn prefetch_links(document: &Document) -> Vec<(NodeId, String)> {
    document
        .descendants(document.root())
        .filter_map(|id| {
            if !document.is_element_named(id, "link") {
                return None;
            }
            let rel = document.attribute(id, "rel")?;
            if !rel_contains(rel, "prefetch") {
                return None;
            }
            resource_attr(document, id, "href").map(|href| (id, href.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_document, ParseOptions};

    fn doc(html: &str) -> Document {
        parse_document(html, &ParseOptions::default()).document
    }

    #[test]
    fn critical_resources_interleave_stylesheets_and_scripts_in_document_order() {
        let document = doc(concat!(
            "<html><head>",
            r#"<link rel="stylesheet" href="/a.css">"#,
            r#"<script src="/b.js"></script>"#,
            r#"<link rel="stylesheet" href="/c.css">"#,
            "</head><body>",
            "<script>inline();</script>",
            r#"<img src="/d.png">"#,
            "</body></html>"
        ));
        let urls: Vec<String> = critical_resources(&document)
            .into_iter()
            .map(|(_, url)| url)
            .collect();
        assert_eq!(urls, vec!["/a.css", "/b.js", "/c.css"]);
    }

    #[test]
    fn non_stylesheet_links_and_attributeless_tags_are_skipped() {
        let document = doc(concat!(
            "<html><head>",
            r#"<link rel="icon" href="/favicon.ico">"#,
            r#"<link rel="stylesheet">"#,
            r#"<link href="/bare.css">"#,
            r#"<script src=""></script>"#,
            "</head></html>"
        ));
        assert!(critical_resources(&document).is_empty());
        assert!(prefetch_links(&document).is_empty());
    }

    #[test]
    fn prefetch_rel_matching_is_token_wise_and_case_insensitive() {
        let document = doc(concat!(
            "<html><head>",
            r#"<link rel="Prefetch" href="/one">"#,
            r#"<link rel="dns-prefetch" href="/not-this">"#,
            r#"<link rel="prerender prefetch" href="/two">"#,
            "</head></html>"
        ));
        let urls: Vec<String> = prefetch_links(&document)
            .into_iter()
            .map(|(_, url)| url)
            .collect();
        assert_eq!(urls, vec!["/one", "/two"]);
    }

    #[test]
    fn stylesheet_rel_is_also_token_wise() {
        let document =
            doc(r#"<html><head><link rel="preload stylesheet" href="/s.css"></head></html>"#);
        let urls: Vec<String> = critical_resources(&document)
            .into_iter()
            .map(|(_, url)| url)
            .collect();
        assert_eq!(urls, vec!["/s.css"]);
    }
}
