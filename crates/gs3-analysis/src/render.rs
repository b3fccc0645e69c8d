//! Plain-text rendering of a configured network — a quick visual check of
//! the cellular hexagonal structure without leaving the terminal.
//!
//! Glyphs: `B` big node (head), `b` big node away, `H` cell head,
//! `c` head candidate, `.` associate, `?` bootup, `x` dead node,
//! `*` an ideal location with no node drawn over it.

use gs3_core::snapshot::{RoleView, Snapshot};
use gs3_geometry::Point;

/// Options for [`render`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Width of the character canvas.
    pub width: usize,
    /// Height of the character canvas.
    pub height: usize,
    /// Whether to overlay the heads' current ILs as `*`.
    pub show_ideal_locations: bool,
    /// Whether dead nodes are drawn (`x`) or skipped.
    pub show_dead: bool,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions { width: 72, height: 30, show_ideal_locations: true, show_dead: false }
    }
}

/// Renders the snapshot to a character canvas scaled to the bounding box
/// of the alive nodes. Higher-priority glyphs overwrite lower ones when
/// two nodes land on the same character cell.
#[must_use]
pub fn render(snap: &Snapshot, opts: RenderOptions) -> String {
    let alive: Vec<&gs3_core::snapshot::NodeView> =
        snap.nodes.iter().filter(|n| n.alive || opts.show_dead).collect();
    if alive.is_empty() || opts.width < 2 || opts.height < 2 {
        return String::from("(empty network)\n");
    }
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for n in &alive {
        min_x = min_x.min(n.pos.x);
        min_y = min_y.min(n.pos.y);
        max_x = max_x.max(n.pos.x);
        max_y = max_y.max(n.pos.y);
    }
    let span_x = (max_x - min_x).max(1e-9);
    let span_y = (max_y - min_y).max(1e-9);
    let place = |p: Point| -> (usize, usize) {
        let cx = ((p.x - min_x) / span_x * (opts.width - 1) as f64).round() as usize;
        // Screen y grows downward.
        let cy = ((max_y - p.y) / span_y * (opts.height - 1) as f64).round() as usize;
        (cx.min(opts.width - 1), cy.min(opts.height - 1))
    };

    let mut canvas = vec![vec![b' '; opts.width]; opts.height];
    let mut priority = vec![vec![0u8; opts.width]; opts.height];
    let mut draw = |p: Point, glyph: u8, prio: u8| {
        let (x, y) = place(p);
        if prio >= priority[y][x] {
            canvas[y][x] = glyph;
            priority[y][x] = prio;
        }
    };

    if opts.show_ideal_locations {
        for n in snap.heads() {
            if let RoleView::Head { il, .. } = &n.role {
                draw(*il, b'*', 1);
            }
        }
    }
    for n in &alive {
        let (glyph, prio) = if !n.alive {
            (b'x', 2)
        } else {
            match &n.role {
                RoleView::Bootup => (b'?', 3),
                RoleView::Associate { is_candidate: true, .. } => (b'c', 4),
                RoleView::Associate { .. } => (b'.', 3),
                RoleView::Head { .. } if n.is_big => (b'B', 6),
                RoleView::Head { .. } => (b'H', 5),
                RoleView::BigAway { .. } => (b'b', 6),
            }
        };
        draw(n.pos, glyph, prio);
    }

    let mut out = String::with_capacity((opts.width + 1) * opts.height + 64);
    for row in canvas {
        out.push_str(std::str::from_utf8(&row).expect("ascii canvas"));
        out.push('\n');
    }
    out.push_str("B=big  H=head  c=candidate  .=associate  ?=bootup  *=ideal location\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_core::snapshot::NodeView;
    use gs3_geometry::spiral::IccIcp;
    use gs3_geometry::Angle;
    use gs3_sim::NodeId;

    fn snap(nodes: Vec<NodeView>) -> Snapshot {
        Snapshot {
            r: 100.0,
            r_t: 10.0,
            big: NodeId::new(0),
            max_range: 400.0,
            gr: Angle::ZERO,
            nodes,
        }
    }

    fn head(id: u64, pos: Point, big: bool) -> NodeView {
        NodeView {
            id: NodeId::new(id),
            pos,
            alive: true,
            is_big: big,
            role: RoleView::Head {
                il: pos,
                oil: pos,
                icc_icp: IccIcp::ORIGIN,
                parent: NodeId::new(0),
                hops: 0,
                children: vec![],
                associates: vec![],
                is_proxy: false,
            },
            ids_stored: 0,
        }
    }

    #[test]
    fn renders_glyphs() {
        let s = snap(vec![
            head(0, Point::ORIGIN, true),
            head(1, Point::new(100.0, 0.0), false),
            NodeView {
                id: NodeId::new(2),
                pos: Point::new(50.0, 40.0),
                alive: true,
                is_big: false,
                role: RoleView::Associate {
                    head: NodeId::new(0),
                    cell_il: Point::ORIGIN,
                    surrogate: false,
                    is_candidate: false,
                },
                ids_stored: 0,
            },
        ]);
        let art = render(&s, RenderOptions::default());
        assert!(art.contains('B'));
        assert!(art.contains('H'));
        assert!(art.contains('.'));
        assert!(art.contains("B=big"));
    }

    #[test]
    fn empty_network() {
        let s = snap(vec![]);
        assert!(render(&s, RenderOptions::default()).contains("empty"));
    }

    #[test]
    fn canvas_dimensions() {
        let s = snap(vec![head(0, Point::ORIGIN, true), head(1, Point::new(10.0, 10.0), false)]);
        let opts = RenderOptions { width: 20, height: 8, ..Default::default() };
        let art = render(&s, opts);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 9); // 8 canvas rows + legend
        assert!(lines[..8].iter().all(|l| l.len() == 20));
    }
}
