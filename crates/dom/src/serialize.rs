//! HTML serialization of DOM subtrees.

use crate::document::Document;
use crate::node::{NodeData, NodeId};

/// Tags serialized without a closing tag and never given children.
pub const VOID_ELEMENTS: [&str; 14] = [
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Tags whose text content is serialized raw (no entity escaping), matching how the
/// parser treats them.
pub const RAW_TEXT_ELEMENTS: [&str; 4] = ["script", "style", "textarea", "title"];

/// `true` when `tag` is a void element.
#[must_use]
pub fn is_void_element(tag: &str) -> bool {
    VOID_ELEMENTS.iter().any(|t| t.eq_ignore_ascii_case(tag))
}

/// `true` when `tag` is a raw-text element.
#[must_use]
pub fn is_raw_text_element(tag: &str) -> bool {
    RAW_TEXT_ELEMENTS
        .iter()
        .any(|t| t.eq_ignore_ascii_case(tag))
}

/// Escapes text-node content.
#[must_use]
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes attribute values (double-quoted serialization).
#[must_use]
pub fn escape_attribute(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '<' => out.push_str("&lt;"),
            _ => out.push(c),
        }
    }
    out
}

impl Document {
    /// Serializes a node and its subtree to HTML.
    #[must_use]
    pub fn outer_html(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.write_node(id, &mut out, false);
        out
    }

    /// Serializes the children of a node to HTML (the DOM `innerHTML` getter).
    #[must_use]
    pub fn inner_html(&self, id: NodeId) -> String {
        let raw = matches!(self.tag_name(id), Some(tag) if is_raw_text_element(tag));
        let mut out = String::new();
        for child in self.children(id) {
            self.write_node(child, &mut out, raw);
        }
        out
    }

    /// Serializes `id` and its subtree onto `out`. Iterative, with an explicit
    /// stack, so nesting depth is bounded by memory rather than the thread's stack.
    fn write_node(&self, id: NodeId, out: &mut String, raw_text: bool) {
        enum Step {
            /// Serialize a node; a text node is written unescaped when the flag is
            /// set (its parent is a raw-text element).
            Open(NodeId, bool),
            /// Write an element's end tag.
            Close(NodeId),
        }
        let mut stack = vec![Step::Open(id, raw_text)];
        while let Some(step) = stack.pop() {
            let (node, raw_text) = match step {
                Step::Open(node, raw_text) => (node, raw_text),
                Step::Close(node) => {
                    let tag = self.tag_name(node).unwrap_or_default();
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                    continue;
                }
            };
            let children_raw = match self.data(node) {
                NodeData::Document => false,
                NodeData::Doctype(name) => {
                    out.push_str("<!DOCTYPE ");
                    out.push_str(name);
                    out.push('>');
                    continue;
                }
                NodeData::Comment(text) => {
                    out.push_str("<!--");
                    out.push_str(text);
                    out.push_str("-->");
                    continue;
                }
                NodeData::Text(text) => {
                    if raw_text {
                        out.push_str(text);
                    } else {
                        out.push_str(&escape_text(text));
                    }
                    continue;
                }
                NodeData::Element(element) => {
                    out.push('<');
                    out.push_str(&element.tag);
                    for (name, value) in &element.attrs {
                        out.push(' ');
                        out.push_str(name);
                        out.push_str("=\"");
                        out.push_str(&escape_attribute(value));
                        out.push('"');
                    }
                    out.push('>');
                    if is_void_element(&element.tag) {
                        continue;
                    }
                    stack.push(Step::Close(node));
                    is_raw_text_element(&element.tag)
                }
            };
            // Children go on the stack last-first so they pop in document order.
            let mut child = self.last_child(node);
            while let Some(current) = child {
                stack.push(Step::Open(current, children_raw));
                child = self.prev_sibling(current);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_elements_attributes_and_text() {
        let mut doc = Document::new();
        let div = doc.create_element_with_attrs("div", &[("id", "x"), ("ring", "2")]);
        doc.append_child(doc.root(), div).unwrap();
        let t = doc.create_text("a < b & c");
        doc.append_child(div, t).unwrap();
        assert_eq!(
            doc.outer_html(div),
            "<div id=\"x\" ring=\"2\">a &lt; b &amp; c</div>"
        );
        assert_eq!(doc.inner_html(div), "a &lt; b &amp; c");
    }

    #[test]
    fn void_elements_have_no_closing_tag() {
        let mut doc = Document::new();
        let img = doc.create_element_with_attrs("img", &[("src", "http://x.example/a.png")]);
        doc.append_child(doc.root(), img).unwrap();
        assert_eq!(doc.outer_html(img), "<img src=\"http://x.example/a.png\">");
    }

    #[test]
    fn attribute_values_are_quoted_and_escaped() {
        let mut doc = Document::new();
        let a = doc.create_element_with_attrs("a", &[("href", "/q?a=1&b=\"two\"")]);
        doc.append_child(doc.root(), a).unwrap();
        assert_eq!(
            doc.outer_html(a),
            "<a href=\"/q?a=1&amp;b=&quot;two&quot;\"></a>"
        );
    }

    #[test]
    fn script_content_is_not_entity_escaped() {
        let mut doc = Document::new();
        let script = doc.create_element("script");
        doc.append_child(doc.root(), script).unwrap();
        let code = doc.create_text("if (a < b && c > d) { run(); }");
        doc.append_child(script, code).unwrap();
        assert_eq!(
            doc.outer_html(script),
            "<script>if (a < b && c > d) { run(); }</script>"
        );
        assert_eq!(doc.inner_html(script), "if (a < b && c > d) { run(); }");
    }

    #[test]
    fn comments_and_doctype_roundtrip() {
        let mut doc = Document::new();
        let dt = doc.create_doctype("html");
        doc.append_child(doc.root(), dt).unwrap();
        let c = doc.create_comment(" note ");
        doc.append_child(doc.root(), c).unwrap();
        assert_eq!(doc.outer_html(doc.root()), "<!DOCTYPE html><!-- note -->");
    }

    #[test]
    fn whole_document_serialization() {
        let mut doc = Document::new();
        let html = doc.create_element("html");
        doc.append_child(doc.root(), html).unwrap();
        let body = doc.create_element("body");
        doc.append_child(html, body).unwrap();
        let p = doc.create_element("p");
        doc.append_child(body, p).unwrap();
        let t = doc.create_text("hi");
        doc.append_child(p, t).unwrap();
        assert_eq!(
            doc.outer_html(doc.root()),
            "<html><body><p>hi</p></body></html>"
        );
    }
}
