//! The host interface between the interpreter and the embedding browser.
//!
//! Every effectful operation a script can perform is a method on [`Host`]. The ESCUDO
//! browser implements this trait and interposes its reference monitor on each call;
//! [`HostError::AccessDenied`] is how a policy denial reaches the script (it becomes a
//! [`ScriptError::AccessDenied`](crate::ScriptError::AccessDenied)).
//!
//! A [`MockHost`] is provided for unit-testing scripts without a browser.

use std::collections::HashMap;
use std::fmt;

/// An opaque handle to a DOM node owned by the host.
pub type HostNodeId = u64;

/// An opaque handle to an XMLHttpRequest owned by the host.
pub type HostXhrId = u64;

/// The result of sending an XMLHttpRequest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XhrOutcome {
    /// HTTP status code of the response.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Errors a host call can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The reference monitor denied the access (the reason names the violated rule).
    AccessDenied(String),
    /// The referenced node/object does not exist.
    NotFound(String),
    /// The operation is not supported by this host.
    Unsupported(String),
    /// A network-level failure (unknown host, …).
    Network(String),
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostError::AccessDenied(r) => write!(f, "access denied: {r}"),
            HostError::NotFound(r) => write!(f, "not found: {r}"),
            HostError::Unsupported(r) => write!(f, "unsupported: {r}"),
            HostError::Network(r) => write!(f, "network error: {r}"),
        }
    }
}

impl std::error::Error for HostError {}

/// The browser-side API surface exposed to scripts.
///
/// Methods mirror the DOM/cookie/XHR/history operations identified as objects in the
/// paper's Table 1. Implementations decide, per call, whether the current principal may
/// perform the operation.
pub trait Host {
    // ------------------------------------------------------------------ DOM
    /// `document.getElementById`.
    fn get_element_by_id(&mut self, id: &str) -> Result<Option<HostNodeId>, HostError>;
    /// `document.getElementsByTagName`.
    fn get_elements_by_tag_name(&mut self, tag: &str) -> Result<Vec<HostNodeId>, HostError>;
    /// `document.createElement`.
    fn create_element(&mut self, tag: &str) -> Result<HostNodeId, HostError>;
    /// `document.createTextNode`.
    fn create_text_node(&mut self, text: &str) -> Result<HostNodeId, HostError>;
    /// The `document.body` element.
    fn document_body(&mut self) -> Result<Option<HostNodeId>, HostError>;
    /// `document.write`.
    fn document_write(&mut self, html: &str) -> Result<(), HostError>;
    /// `parent.appendChild(child)`.
    fn append_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError>;
    /// `parent.removeChild(child)`.
    fn remove_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError>;
    /// `node.setAttribute(name, value)`.
    fn set_attribute(&mut self, node: HostNodeId, name: &str, value: &str)
        -> Result<(), HostError>;
    /// `node.getAttribute(name)`.
    fn get_attribute(&mut self, node: HostNodeId, name: &str) -> Result<Option<String>, HostError>;
    /// The `node.innerHTML` getter.
    fn get_inner_html(&mut self, node: HostNodeId) -> Result<String, HostError>;
    /// The `node.innerHTML` setter.
    fn set_inner_html(&mut self, node: HostNodeId, html: &str) -> Result<(), HostError>;
    /// The `node.textContent` getter.
    fn get_text_content(&mut self, node: HostNodeId) -> Result<String, HostError>;
    /// The `node.tagName` getter.
    fn tag_name(&mut self, node: HostNodeId) -> Result<String, HostError>;

    // ------------------------------------------------------------------ cookies
    /// The `document.cookie` getter.
    fn cookie_get(&mut self) -> Result<String, HostError>;
    /// The `document.cookie` setter.
    fn cookie_set(&mut self, cookie: &str) -> Result<(), HostError>;

    // ------------------------------------------------------------------ XHR
    /// `new XMLHttpRequest()`.
    fn xhr_create(&mut self) -> Result<HostXhrId, HostError>;
    /// `xhr.open(method, url)`.
    fn xhr_open(&mut self, xhr: HostXhrId, method: &str, url: &str) -> Result<(), HostError>;
    /// `xhr.setRequestHeader(name, value)`.
    fn xhr_set_request_header(
        &mut self,
        xhr: HostXhrId,
        name: &str,
        value: &str,
    ) -> Result<(), HostError>;
    /// `xhr.send(body)` — synchronous in this model; returns the response.
    fn xhr_send(&mut self, xhr: HostXhrId, body: &str) -> Result<XhrOutcome, HostError>;

    // ------------------------------------------------------------------ browser state
    /// `history.length`.
    fn history_length(&mut self) -> Result<usize, HostError>;
    /// `history.back()`.
    fn history_back(&mut self) -> Result<(), HostError>;

    // ------------------------------------------------------------------ misc
    /// `console.log` / diagnostics.
    fn log(&mut self, message: &str);
    /// `alert(message)`.
    fn alert(&mut self, message: &str);
}

/// A self-contained [`Host`] for testing scripts without a browser: a flat set of
/// named pseudo-elements, an in-memory cookie string, canned XHR responses, and a log.
#[derive(Debug, Default)]
pub struct MockHost {
    next_node: u64,
    next_xhr: u64,
    nodes: HashMap<HostNodeId, MockNode>,
    by_id: HashMap<String, HostNodeId>,
    cookie: String,
    xhrs: HashMap<HostXhrId, (String, String)>,
    /// Canned response body returned by every `xhr.send`.
    pub xhr_response: String,
    /// Messages passed to `console.log` and `alert`.
    pub messages: Vec<String>,
    /// Text passed to `document.write`.
    pub written: Vec<String>,
}

#[derive(Debug, Clone)]
struct MockNode {
    tag: String,
    attrs: HashMap<String, String>,
    inner_html: String,
    children: Vec<HostNodeId>,
}

impl MockHost {
    /// Creates an empty mock host.
    #[must_use]
    pub fn new() -> Self {
        MockHost {
            xhr_response: "ok".to_string(),
            ..MockHost::default()
        }
    }

    /// Adds a pseudo-element reachable via `document.getElementById(id)`.
    pub fn add_element(&mut self, id: &str, tag: &str, inner_html: &str) -> HostNodeId {
        let node_id = self.alloc_node(tag);
        if let Some(node) = self.nodes.get_mut(&node_id) {
            node.inner_html = inner_html.to_string();
            node.attrs.insert("id".to_string(), id.to_string());
        }
        self.by_id.insert(id.to_string(), node_id);
        node_id
    }

    /// Sets the cookie string returned by `document.cookie`.
    pub fn set_cookie_string(&mut self, cookie: &str) {
        self.cookie = cookie.to_string();
    }

    /// The current cookie string.
    #[must_use]
    pub fn cookie_string(&self) -> &str {
        &self.cookie
    }

    /// Reads back a node's innerHTML (test observation).
    #[must_use]
    pub fn inner_html_of(&self, id: &str) -> Option<&str> {
        let node_id = self.by_id.get(id)?;
        self.nodes.get(node_id).map(|n| n.inner_html.as_str())
    }

    fn alloc_node(&mut self, tag: &str) -> HostNodeId {
        self.next_node += 1;
        let id = self.next_node;
        self.nodes.insert(
            id,
            MockNode {
                tag: tag.to_string(),
                attrs: HashMap::new(),
                inner_html: String::new(),
                children: Vec::new(),
            },
        );
        id
    }

    fn node_mut(&mut self, node: HostNodeId) -> Result<&mut MockNode, HostError> {
        self.nodes
            .get_mut(&node)
            .ok_or_else(|| HostError::NotFound(format!("node {node}")))
    }
}

impl Host for MockHost {
    fn get_element_by_id(&mut self, id: &str) -> Result<Option<HostNodeId>, HostError> {
        Ok(self.by_id.get(id).copied())
    }

    fn get_elements_by_tag_name(&mut self, tag: &str) -> Result<Vec<HostNodeId>, HostError> {
        let mut nodes: Vec<HostNodeId> = self
            .nodes
            .iter()
            .filter(|(_, n)| n.tag.eq_ignore_ascii_case(tag))
            .map(|(id, _)| *id)
            .collect();
        // Creation order, not hash order, so answers repeat across runs.
        nodes.sort_unstable();
        Ok(nodes)
    }

    fn create_element(&mut self, tag: &str) -> Result<HostNodeId, HostError> {
        Ok(self.alloc_node(tag))
    }

    fn create_text_node(&mut self, text: &str) -> Result<HostNodeId, HostError> {
        let id = self.alloc_node("#text");
        if let Some(node) = self.nodes.get_mut(&id) {
            node.inner_html = text.to_string();
        }
        Ok(id)
    }

    fn document_body(&mut self) -> Result<Option<HostNodeId>, HostError> {
        Ok(self.by_id.get("body").copied())
    }

    fn document_write(&mut self, html: &str) -> Result<(), HostError> {
        self.written.push(html.to_string());
        Ok(())
    }

    fn append_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError> {
        if !self.nodes.contains_key(&child) {
            return Err(HostError::NotFound(format!("node {child}")));
        }
        self.node_mut(parent)?.children.push(child);
        Ok(())
    }

    fn remove_child(&mut self, parent: HostNodeId, child: HostNodeId) -> Result<(), HostError> {
        let parent_node = self.node_mut(parent)?;
        parent_node.children.retain(|&c| c != child);
        Ok(())
    }

    fn set_attribute(
        &mut self,
        node: HostNodeId,
        name: &str,
        value: &str,
    ) -> Result<(), HostError> {
        self.node_mut(node)?
            .attrs
            .insert(name.to_ascii_lowercase(), value.to_string());
        Ok(())
    }

    fn get_attribute(&mut self, node: HostNodeId, name: &str) -> Result<Option<String>, HostError> {
        Ok(self
            .node_mut(node)?
            .attrs
            .get(&name.to_ascii_lowercase())
            .cloned())
    }

    fn get_inner_html(&mut self, node: HostNodeId) -> Result<String, HostError> {
        Ok(self.node_mut(node)?.inner_html.clone())
    }

    fn set_inner_html(&mut self, node: HostNodeId, html: &str) -> Result<(), HostError> {
        self.node_mut(node)?.inner_html = html.to_string();
        Ok(())
    }

    fn get_text_content(&mut self, node: HostNodeId) -> Result<String, HostError> {
        Ok(self.node_mut(node)?.inner_html.clone())
    }

    fn tag_name(&mut self, node: HostNodeId) -> Result<String, HostError> {
        Ok(self.node_mut(node)?.tag.to_ascii_uppercase())
    }

    fn cookie_get(&mut self) -> Result<String, HostError> {
        Ok(self.cookie.clone())
    }

    fn cookie_set(&mut self, cookie: &str) -> Result<(), HostError> {
        if self.cookie.is_empty() {
            self.cookie = cookie.to_string();
        } else {
            self.cookie = format!("{}; {}", self.cookie, cookie);
        }
        Ok(())
    }

    fn xhr_create(&mut self) -> Result<HostXhrId, HostError> {
        self.next_xhr += 1;
        self.xhrs
            .insert(self.next_xhr, (String::new(), String::new()));
        Ok(self.next_xhr)
    }

    fn xhr_open(&mut self, xhr: HostXhrId, method: &str, url: &str) -> Result<(), HostError> {
        let entry = self
            .xhrs
            .get_mut(&xhr)
            .ok_or_else(|| HostError::NotFound(format!("xhr {xhr}")))?;
        *entry = (method.to_string(), url.to_string());
        Ok(())
    }

    fn xhr_set_request_header(
        &mut self,
        _xhr: HostXhrId,
        _name: &str,
        _value: &str,
    ) -> Result<(), HostError> {
        Ok(())
    }

    fn xhr_send(&mut self, xhr: HostXhrId, _body: &str) -> Result<XhrOutcome, HostError> {
        if !self.xhrs.contains_key(&xhr) {
            return Err(HostError::NotFound(format!("xhr {xhr}")));
        }
        Ok(XhrOutcome {
            status: 200,
            body: self.xhr_response.clone(),
        })
    }

    fn history_length(&mut self) -> Result<usize, HostError> {
        Ok(1)
    }

    fn history_back(&mut self) -> Result<(), HostError> {
        Ok(())
    }

    fn log(&mut self, message: &str) {
        self.messages.push(message.to_string());
    }

    fn alert(&mut self, message: &str) {
        self.messages.push(format!("alert: {message}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_host_supports_the_dom_surface() {
        let mut host = MockHost::new();
        let body = host.add_element("body", "body", "");
        let found = host.get_element_by_id("body").unwrap();
        assert_eq!(found, Some(body));
        assert_eq!(host.get_element_by_id("missing").unwrap(), None);

        let div = host.create_element("div").unwrap();
        host.set_attribute(div, "Class", "x").unwrap();
        assert_eq!(
            host.get_attribute(div, "class").unwrap().as_deref(),
            Some("x")
        );
        host.append_child(body, div).unwrap();
        host.set_inner_html(div, "<b>hi</b>").unwrap();
        assert_eq!(host.get_inner_html(div).unwrap(), "<b>hi</b>");
        assert_eq!(host.tag_name(div).unwrap(), "DIV");
        assert_eq!(host.get_elements_by_tag_name("div").unwrap(), vec![div]);
        host.remove_child(body, div).unwrap();
    }

    #[test]
    fn mock_host_cookies_and_xhr() {
        let mut host = MockHost::new();
        host.set_cookie_string("sid=1");
        assert_eq!(host.cookie_get().unwrap(), "sid=1");
        host.cookie_set("theme=dark").unwrap();
        assert_eq!(host.cookie_string(), "sid=1; theme=dark");

        let xhr = host.xhr_create().unwrap();
        host.xhr_open(xhr, "GET", "/api").unwrap();
        host.xhr_response = "payload".to_string();
        let outcome = host.xhr_send(xhr, "").unwrap();
        assert_eq!(outcome.status, 200);
        assert_eq!(outcome.body, "payload");
        assert!(host.xhr_send(999, "").is_err());
    }

    #[test]
    fn missing_nodes_are_not_found_errors() {
        let mut host = MockHost::new();
        assert!(matches!(
            host.set_attribute(42, "a", "b"),
            Err(HostError::NotFound(_))
        ));
        assert!(matches!(
            host.get_inner_html(42),
            Err(HostError::NotFound(_))
        ));
    }

    #[test]
    fn host_error_display() {
        assert!(HostError::AccessDenied("ring rule".into())
            .to_string()
            .contains("access denied"));
        assert!(HostError::Network("no route".into())
            .to_string()
            .contains("network"));
    }
}
