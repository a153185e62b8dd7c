//! A deterministic layout ("rendering") pass.
//!
//! The paper measures "parsing and rendering time"; for the overhead comparison to be
//! meaningful the reproduction needs the renderer to do real, content-proportional
//! work. This module implements a simple block/line layout: every visible element
//! becomes a box, text is broken into lines at a fixed character width, and the
//! resulting display list plus statistics are returned. The pass is identical with and
//! without ESCUDO — ESCUDO only adds the bookkeeping measured separately — exactly as
//! in the prototype, where enforcement hooks wrap the existing pipeline.

use escudo_dom::{Document, NodeData, NodeId};

/// Horizontal pixels assumed per character (fixed-width text model).
const CHAR_WIDTH: u32 = 8;
/// Pixel height of one line of text.
const LINE_HEIGHT: u32 = 16;
/// Vertical padding added around block boxes.
const BLOCK_PADDING: u32 = 4;

/// Elements that are not rendered at all.
const INVISIBLE: [&str; 6] = ["head", "script", "style", "title", "meta", "link"];

/// One box in the display list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutBox {
    /// The node this box renders (element or text run).
    pub node: usize,
    /// X offset in pixels.
    pub x: u32,
    /// Y offset in pixels.
    pub y: u32,
    /// Box width in pixels.
    pub width: u32,
    /// Box height in pixels.
    pub height: u32,
    /// Number of text lines inside the box (0 for pure containers).
    pub lines: u32,
}

/// Aggregate statistics of one layout pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Number of boxes produced.
    pub boxes: usize,
    /// Number of text lines laid out.
    pub lines: usize,
    /// Number of characters measured.
    pub characters: usize,
    /// Total document height in pixels.
    pub height: u32,
}

/// The renderer.
#[derive(Debug, Clone)]
pub struct Renderer {
    viewport_width: u32,
}

impl Default for Renderer {
    fn default() -> Self {
        Renderer::new(1024)
    }
}

impl Renderer {
    /// Creates a renderer for the given viewport width in pixels.
    #[must_use]
    pub fn new(viewport_width: u32) -> Self {
        Renderer {
            viewport_width: viewport_width.max(64),
        }
    }

    /// Lays out the document and returns the display list plus statistics.
    ///
    /// The walk is iterative, with an explicit stack of open containers, so nesting
    /// depth is bounded by memory rather than the thread's stack. Boxes come out in
    /// post-order: a text box when its run is laid out, a container's box after all
    /// of its children.
    #[must_use]
    pub fn layout(&self, document: &Document) -> (Vec<LayoutBox>, RenderStats) {
        let mut boxes = Vec::new();
        let mut stats = RenderStats::default();
        let root = document.root();
        // The document is a container without padding or a box of its own. The
        // capacity covers common nesting depths without regrowing.
        let mut open = Vec::with_capacity(32);
        open.push(Container {
            node: root,
            x: 0,
            y: 0,
            width: self.viewport_width,
            padding: 0,
            next_child: document.first_child(root),
            cursor: 0,
        });
        while let Some(top) = open.last_mut() {
            let Some(child) = top.next_child else {
                let done = open.pop().expect("the stack has a top");
                let height = (done.cursor + done.padding) - done.y;
                if done.node != root {
                    boxes.push(LayoutBox {
                        node: done.node.index(),
                        x: done.x,
                        y: done.y,
                        width: done.width,
                        height,
                        lines: 0,
                    });
                }
                match open.last_mut() {
                    Some(parent) => parent.cursor += height,
                    None => stats.height = height,
                }
                continue;
            };
            top.next_child = document.next_sibling(child);
            let (x, y) = (top.x + top.padding, top.cursor);
            let width = if top.node == root {
                top.width
            } else {
                top.width.saturating_sub(2 * BLOCK_PADDING).max(CHAR_WIDTH)
            };
            match document.data(child) {
                NodeData::Document | NodeData::Doctype(_) | NodeData::Comment(_) => {}
                NodeData::Text(text) => {
                    let trimmed = text.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    let chars = trimmed.chars().count();
                    let per_line = (width / CHAR_WIDTH).max(1) as usize;
                    let lines = chars.div_ceil(per_line) as u32;
                    stats.lines += lines as usize;
                    stats.characters += chars;
                    let height = lines * LINE_HEIGHT;
                    top.cursor += height;
                    boxes.push(LayoutBox {
                        node: child.index(),
                        x,
                        y,
                        width,
                        height,
                        lines,
                    });
                }
                NodeData::Element(element) => {
                    if INVISIBLE.iter().any(|t| *t == element.tag) {
                        continue;
                    }
                    open.push(Container {
                        node: child,
                        x,
                        y,
                        width,
                        padding: BLOCK_PADDING,
                        next_child: document.first_child(child),
                        cursor: y + BLOCK_PADDING,
                    });
                }
            }
        }
        stats.boxes = boxes.len();
        (boxes, stats)
    }
}

/// A container (the document or a visible element) whose children are being laid
/// out.
struct Container {
    node: NodeId,
    x: u32,
    y: u32,
    width: u32,
    /// Padding above, below and left of the children (0 for the document).
    padding: u32,
    /// The next child to lay out.
    next_child: Option<NodeId>,
    /// The y offset of the next child.
    cursor: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use escudo_html::{parse_document, ParseOptions};

    fn layout(html: &str) -> (Vec<LayoutBox>, RenderStats) {
        let doc = parse_document(html, &ParseOptions::default()).document;
        Renderer::default().layout(&doc)
    }

    #[test]
    fn text_produces_lines_proportional_to_length() {
        let short = layout("<body><p>tiny</p></body>").1;
        let long_text = "word ".repeat(400);
        let long = layout(&format!("<body><p>{long_text}</p></body>")).1;
        assert!(long.lines > short.lines);
        assert!(long.characters > short.characters);
        assert!(long.height > short.height);
    }

    #[test]
    fn invisible_elements_are_skipped() {
        let (_, with_script) =
            layout("<head><script>var x = 'not rendered';</script></head><body><p>hi</p></body>");
        let (_, without) = layout("<body><p>hi</p></body>");
        assert_eq!(with_script.lines, without.lines);
        assert_eq!(with_script.characters, without.characters);
    }

    #[test]
    fn nested_blocks_nest_geometrically() {
        let (boxes, stats) = layout("<body><div><div><p>deep</p></div></div></body>");
        assert!(stats.boxes >= 4);
        // Every box fits inside the viewport.
        assert!(boxes.iter().all(|b| b.x + b.width <= 1024));
        // The innermost text box is indented by the nesting padding.
        let text_box = boxes.iter().find(|b| b.lines > 0).unwrap();
        assert!(text_box.x >= 3 * BLOCK_PADDING);
    }

    #[test]
    fn empty_page_renders_to_nothing_visible() {
        let (_, stats) = layout("");
        assert_eq!(stats.lines, 0);
        assert_eq!(stats.characters, 0);
    }

    #[test]
    fn narrow_viewports_produce_more_lines() {
        let text = "x".repeat(600);
        let html = format!("<body><p>{text}</p></body>");
        let doc = parse_document(&html, &ParseOptions::default()).document;
        let wide = Renderer::new(1200).layout(&doc).1;
        let narrow = Renderer::new(200).layout(&doc).1;
        assert!(narrow.lines > wide.lines);
    }
}
