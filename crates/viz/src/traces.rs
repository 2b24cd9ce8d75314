//! Trace rendering in the paper's notation.
//!
//! §III-B writes runs of the roommates algorithm as lines like
//!
//! ```text
//! w → m   m holds   w removes m: w'u
//! ```
//!
//! ("`w → m` represents a proposal from w to m. `m: uw'` represents
//! removing u and w' from m's list.") These renderers reproduce that
//! notation from the solvers' event logs.

use kmatch_gs::GsEvent;
use kmatch_roommates::RoommatesEvent;

use crate::names::NameMap;

/// Render a roommates event log in §III-B style, one event per line.
pub fn render_roommates_trace(events: &[RoommatesEvent], names: &NameMap) -> String {
    let mut out = String::new();
    for event in events {
        match event {
            RoommatesEvent::Proposal {
                from,
                to,
                displaced,
            } => {
                out.push_str(&format!(
                    "{} → {}   {} holds",
                    names.of(*from),
                    names.of(*to),
                    names.of(*to)
                ));
                if let Some(z) = displaced {
                    out.push_str(&format!("   rejects {}", names.of(*z)));
                }
                out.push('\n');
            }
            RoommatesEvent::Truncation {
                holder,
                kept: _,
                removed,
            } => {
                out.push_str(&format!(
                    "        removes {}: {}\n",
                    names.of(*holder),
                    names.concat(removed)
                ));
            }
            RoommatesEvent::Rotation { xs, ys } => {
                let cycle: Vec<String> = xs
                    .iter()
                    .zip(ys)
                    .map(|(x, y)| format!("{}→{}", names.of(*x), names.of(*y)))
                    .collect();
                out.push_str(&format!("loop: {}\n", cycle.join(", ")));
            }
            RoommatesEvent::ListEmptied { who } => {
                out.push_str(&format!(
                    "{}'s reduced list is empty — no stable matching\n",
                    names.of(*who)
                ));
            }
        }
    }
    out
}

/// Render a Gale–Shapley event log; proposers and responders have separate
/// name maps.
pub fn render_gs_trace(events: &[GsEvent], proposers: &NameMap, responders: &NameMap) -> String {
    let mut out = String::new();
    for event in events {
        match event {
            GsEvent::RoundStart { round } => {
                out.push_str(&format!("— round {round} —\n"));
            }
            GsEvent::Propose {
                proposer,
                responder,
            } => {
                out.push_str(&format!(
                    "{} → {}\n",
                    proposers.of(*proposer),
                    responders.of(*responder)
                ));
            }
            GsEvent::Engage {
                proposer,
                responder,
            } => {
                out.push_str(&format!(
                    "        {} says maybe to {}\n",
                    responders.of(*responder),
                    proposers.of(*proposer)
                ));
            }
            GsEvent::Reject {
                proposer,
                responder,
            } => {
                out.push_str(&format!(
                    "        {} rejects {}\n",
                    responders.of(*responder),
                    proposers.of(*proposer)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_gs::gale_shapley_traced;
    use kmatch_prefs::gen::paper::{
        example1_first, example1_second, section3b_left, section3b_right,
    };
    use kmatch_prefs::{BipartiteInstance, RoommatesInstance};
    use kmatch_roommates::solve_traced;

    fn gs_text(inst: &BipartiteInstance) -> String {
        let (_, events) = gale_shapley_traced(inst);
        let men = NameMap::new(vec!["m".into(), "m'".into()]);
        let women = NameMap::new(vec!["w".into(), "w'".into()]);
        render_gs_trace(&events, &men, &women)
    }

    fn roommates_text(inst: &RoommatesInstance) -> String {
        let (_, events) = solve_traced(inst);
        render_roommates_trace(&events, &NameMap::paper_tripartite())
    }

    #[test]
    fn left_instance_trace_reads_like_the_paper() {
        let inst = section3b_left();
        let (out, events) = solve_traced(&inst);
        assert!(out.is_stable());
        let text = render_roommates_trace(&events, &NameMap::paper_tripartite());
        // The trace must contain paper-style proposal arrows and removal
        // lines (the exact sequence differs from the paper's manual order,
        // which is legal — phase 1 is confluent).
        assert!(text.contains("→"), "has proposal arrows:\n{text}");
        assert!(text.contains("removes"), "has removal lines:\n{text}");
        // m proposes to u' at some point (m: u' is his top choice).
        assert!(text.contains("m → u'"), "m's first proposal:\n{text}");
    }

    #[test]
    fn right_instance_trace_ends_with_empty_list() {
        let inst = section3b_right();
        let (out, events) = solve_traced(&inst);
        assert!(!out.is_stable());
        let text = render_roommates_trace(&events, &NameMap::paper_tripartite());
        assert!(
            text.contains("reduced list is empty — no stable matching"),
            "paper's certificate line:\n{text}"
        );
    }

    #[test]
    fn gs_trace_renders_dialogue() {
        let text = gs_text(&example1_first());
        assert!(text.contains("— round 1 —"));
        assert!(text.contains("m → w"));
        assert!(text.contains("w rejects m"));
        assert!(text.contains("w' says maybe to m"));
    }

    // Byte-exact renderings of the paper's worked examples: any change to
    // event order, event content or the renderers shows up here.

    #[test]
    fn golden_gs_example1_first() {
        assert_eq!(
            gs_text(&example1_first()),
            "— round 1 —\nm → w\n        w says maybe to m\nm' → w\n        w rejects m\n        w says maybe to m'\n— round 2 —\nm → w'\n        w' says maybe to m\n"
        );
    }

    #[test]
    fn golden_gs_example1_second() {
        assert_eq!(
            gs_text(&example1_second()),
            "— round 1 —\nm → w\n        w says maybe to m\nm' → w'\n        w' says maybe to m'\n"
        );
    }

    #[test]
    fn golden_roommates_section3b_left() {
        assert_eq!(
            roommates_text(&section3b_left()),
            "m → u'   u' holds\n        removes u': ww'm'\nm' → w   w holds\n        removes w: u\nw → m   m holds\n        removes m: w'u\nw' → m'   m' holds\nu → m'   m' holds   rejects w'\n        removes m': w'\nw' → u   u holds\nu' → m   m holds   rejects w\n        removes m: w\nw → m'   m' holds   rejects u\n        removes m': u\nu → w'   w' holds\n"
        );
    }

    #[test]
    fn golden_roommates_section3b_right() {
        assert_eq!(
            roommates_text(&section3b_right()),
            "m → w'   w' holds\n        removes w': m'uu'\nm' → w   w holds\n        removes w: muu'\nw → m'   m' holds\n        removes m': uu'\nw' → m   m holds\n        removes m: u'u\nu's reduced list is empty — no stable matching\n"
        );
    }
}
