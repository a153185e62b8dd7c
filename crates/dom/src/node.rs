//! Node identifiers and node payloads.

use std::fmt;

/// A stable handle to a node inside a [`Document`](crate::Document).
///
/// Ids are indices into the document's arena; slots are never reused, so an id remains
/// valid (though possibly *detached* from the tree) for the document's lifetime. An id
/// is 32 bits wide, which keeps a node's five tree links at 40 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index (useful for keying side tables).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The payload of an element node: its tag name and attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementData {
    /// Lower-cased tag name (`div`, `script`, …).
    pub tag: String,
    /// Attributes in document order. Names are lower-cased; duplicate names keep the
    /// first occurrence (matching HTML parsing rules).
    pub attrs: Vec<(String, String)>,
}

impl ElementData {
    /// Creates an element payload with no attributes.
    #[must_use]
    pub fn new(tag: &str) -> Self {
        ElementData::from_parts(tag.to_string(), Vec::new())
    }

    /// Creates an element payload from owned parts, such as a start tag's name and
    /// attributes, without copying them. Names are lower-cased in place and a
    /// duplicate attribute name keeps its first occurrence, so the payload holds
    /// the same invariant whoever built the parts.
    #[must_use]
    pub fn from_parts(mut tag: String, mut attrs: Vec<(String, String)>) -> Self {
        tag.make_ascii_lowercase();
        for (name, _) in &mut attrs {
            name.make_ascii_lowercase();
        }
        // A 64-bit filter over each name's first byte, last byte and length skips
        // the comparison with earlier names for a name none of them can equal.
        let mut seen = 0u64;
        let mut kept = 0;
        while kept < attrs.len() {
            let name = attrs[kept].0.as_bytes();
            let (first, last) = (name.first().copied(), name.last().copied());
            let slot = u32::from(first.unwrap_or(0)) * 7 + u32::from(last.unwrap_or(0)) * 3;
            let bit = 1u64 << ((slot + name.len() as u32) % 64);
            if seen & bit != 0 && attrs[..kept].iter().any(|(n, _)| *n == attrs[kept].0) {
                attrs.remove(kept);
            } else {
                seen |= bit;
                kept += 1;
            }
        }
        ElementData { tag, attrs }
    }

    /// Looks up an attribute value by (case-insensitive) name.
    #[must_use]
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Sets an attribute, replacing an existing one with the same name.
    pub fn set_attr(&mut self, name: &str, value: &str) {
        let name_lower = name.to_ascii_lowercase();
        if let Some(entry) = self.attrs.iter_mut().find(|(n, _)| *n == name_lower) {
            entry.1 = value.to_string();
        } else {
            self.attrs.push((name_lower, value.to_string()));
        }
    }

    /// Removes an attribute. Returns `true` if it was present.
    pub fn remove_attr(&mut self, name: &str) -> bool {
        let before = self.attrs.len();
        self.attrs.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before != self.attrs.len()
    }
}

/// The payload of a DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// The document root (exactly one per document).
    Document,
    /// A `<!DOCTYPE …>` declaration.
    Doctype(String),
    /// An element with a tag name and attributes.
    Element(ElementData),
    /// A text node.
    Text(String),
    /// A comment node.
    Comment(String),
}

impl NodeData {
    /// The element payload, when this node is an element.
    #[must_use]
    pub fn as_element(&self) -> Option<&ElementData> {
        match self {
            NodeData::Element(e) => Some(e),
            _ => None,
        }
    }

    /// `true` when this node is an element with the given (case-insensitive) tag.
    #[must_use]
    pub fn is_element_named(&self, tag: &str) -> bool {
        matches!(self, NodeData::Element(e) if e.tag.eq_ignore_ascii_case(tag))
    }

    /// The text, when this is a text node.
    #[must_use]
    pub fn as_text(&self) -> Option<&str> {
        match self {
            NodeData::Text(t) => Some(t.as_str()),
            _ => None,
        }
    }
}

/// A node in the arena: tree links plus payload. Internal to the crate; navigate
/// through [`Document`](crate::Document) methods.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) parent: Option<NodeId>,
    pub(crate) first_child: Option<NodeId>,
    pub(crate) last_child: Option<NodeId>,
    pub(crate) prev_sibling: Option<NodeId>,
    pub(crate) next_sibling: Option<NodeId>,
    pub(crate) data: NodeData,
}

impl Node {
    pub(crate) fn new(data: NodeData) -> Self {
        Node {
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_attributes_are_case_insensitive_and_first_wins_on_lookup() {
        let mut e = ElementData::new("DIV");
        assert_eq!(e.tag, "div");
        e.set_attr("Ring", "2");
        assert_eq!(e.attr("ring"), Some("2"));
        assert_eq!(e.attr("RING"), Some("2"));
        e.set_attr("ring", "3");
        assert_eq!(e.attr("ring"), Some("3"));
        assert_eq!(e.attrs.len(), 1);
        assert!(e.remove_attr("RING"));
        assert!(!e.remove_attr("ring"));
    }

    #[test]
    fn owned_parts_are_lower_cased_and_keep_the_first_duplicate() {
        let e = ElementData::from_parts(
            "DiV".to_string(),
            vec![
                ("RING".into(), "3".into()),
                ("id".into(), "a".into()),
                ("Ring".into(), "0".into()),
                ("ring".into(), "1".into()),
            ],
        );
        assert_eq!(e.tag, "div");
        assert_eq!(
            e.attrs,
            vec![
                ("ring".to_string(), "3".to_string()),
                ("id".to_string(), "a".to_string())
            ]
        );
    }

    #[test]
    fn node_data_helpers() {
        let el = NodeData::Element(ElementData::new("script"));
        assert!(el.is_element_named("SCRIPT"));
        assert!(!el.is_element_named("div"));
        assert!(el.as_element().is_some());
        assert!(el.as_text().is_none());

        let text = NodeData::Text("hi".into());
        assert_eq!(text.as_text(), Some("hi"));
        assert!(text.as_element().is_none());
        assert!(!text.is_element_named("p"));
    }

    #[test]
    fn node_id_exposes_its_index() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(NodeId(7).to_string(), "#7");
    }
}
