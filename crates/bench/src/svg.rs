//! A minimal SVG writer: shapes in, escaped text out.

use std::fmt::Write as _;

/// An SVG document under construction (pixel coordinates, origin
/// top-left).
#[derive(Debug, Clone)]
pub(crate) struct SvgCanvas {
    width: f64,
    height: f64,
    body: String,
}

/// Escapes the five XML-special characters.
pub(crate) fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

impl SvgCanvas {
    /// An empty canvas of the given pixel size.
    pub(crate) fn new(width: f64, height: f64) -> Self {
        Self {
            width,
            height,
            body: String::new(),
        }
    }

    /// A filled, stroked rectangle.
    pub(crate) fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str, stroke: &str) {
        let _ = writeln!(
            self.body,
            r#"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" fill="{}" stroke="{}"/>"#,
            escape(fill),
            escape(stroke)
        );
    }

    /// A filled circle.
    pub(crate) fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str, opacity: f64) {
        let _ = writeln!(
            self.body,
            r#"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r:.2}" fill="{}" fill-opacity="{opacity:.2}"/>"#,
            escape(fill)
        );
    }

    /// A straight line segment.
    pub(crate) fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        let _ = writeln!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{}" stroke-width="{width:.2}"/>"#,
            escape(stroke)
        );
    }

    /// A dashed line segment (used for reference diagonals).
    pub(crate) fn dashed_line(
        &mut self,
        x1: f64,
        y1: f64,
        x2: f64,
        y2: f64,
        stroke: &str,
        width: f64,
    ) {
        let _ = writeln!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{}" stroke-width="{width:.2}" stroke-dasharray="6 4"/>"#,
            escape(stroke)
        );
    }

    /// Text anchored per `anchor` ("start" | "middle" | "end"), optionally
    /// rotated by `rotate_deg` about its anchor point.
    pub(crate) fn text(
        &mut self,
        x: f64,
        y: f64,
        content: &str,
        size_px: f64,
        anchor: &str,
        rotate_deg: f64,
    ) {
        let transform = if rotate_deg != 0.0 {
            format!(r#" transform="rotate({rotate_deg:.1} {x:.2} {y:.2})""#)
        } else {
            String::new()
        };
        let _ = writeln!(
            self.body,
            r#"<text x="{x:.2}" y="{y:.2}" font-size="{size_px:.1}" font-family="sans-serif" text-anchor="{}"{transform}>{}</text>"#,
            escape(anchor),
            escape(content)
        );
    }

    /// Finishes the document.
    pub(crate) fn render(self) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" viewBox=\"0 0 {:.0} {:.0}\">\n<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, self.body
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_well_formed_document() {
        let mut c = SvgCanvas::new(200.0, 100.0);
        c.rect(0.0, 0.0, 10.0, 10.0, "red", "none");
        c.circle(50.0, 50.0, 3.0, "#1f77b4", 0.5);
        c.line(0.0, 0.0, 200.0, 100.0, "black", 1.0);
        c.text(100.0, 50.0, "hello", 12.0, "middle", 0.0);
        let svg = c.render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("<circle"));
        assert!(svg.contains("hello"));
        // Every opening tag family used is present exactly as emitted.
        assert_eq!(svg.matches("<rect").count(), 2); // background + ours
    }

    #[test]
    fn escapes_xml_special_characters() {
        let mut c = SvgCanvas::new(10.0, 10.0);
        c.text(0.0, 0.0, "a<b & \"c\" > 'd'", 10.0, "start", 0.0);
        let svg = c.render();
        assert!(svg.contains("a&lt;b &amp; &quot;c&quot; &gt; &apos;d&apos;"));
        assert!(!svg.contains("a<b"));
    }

    #[test]
    fn rotation_emits_transform() {
        let mut c = SvgCanvas::new(10.0, 10.0);
        c.text(5.0, 5.0, "y", 10.0, "middle", -90.0);
        assert!(c.render().contains("rotate(-90.0 5.00 5.00)"));
    }

    #[test]
    fn dashed_line_has_dasharray() {
        let mut c = SvgCanvas::new(10.0, 10.0);
        c.dashed_line(0.0, 0.0, 10.0, 10.0, "red", 1.0);
        assert!(c.render().contains("stroke-dasharray"));
    }
}
