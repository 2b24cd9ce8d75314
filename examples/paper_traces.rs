//! Replay the paper's worked examples with rendered traces.
//!
//! Prints the §III-B left/right roommates runs in the paper's own
//! notation, the Example-1 GS dialogue, and a binding tree with its
//! parallel schedule annotations.
//!
//! ```text
//! cargo run -p kmatch --example paper_traces
//! ```

use kmatch::gs::gale_shapley_traced;
use kmatch::prelude::*;
use kmatch::roommates::solve_traced;
use kmatch::viz::{
    render_gs_trace, render_kary_matching, render_roommates_trace, render_tree, NameMap,
};

fn main() {
    println!("== Example 1 (first preference set): the GS dialogue ==\n");
    let inst = kmatch::gen::paper::example1_first();
    let (out, events) = gale_shapley_traced(&inst);
    let men = NameMap::new(vec!["m".into(), "m'".into()]);
    let women = NameMap::new(vec!["w".into(), "w'".into()]);
    print!("{}", render_gs_trace(&events, &men, &women));
    println!(
        "\nresult: {}",
        if out.matching.partner_of_proposer(0) == 1 {
            "(m', w), (m, w')"
        } else {
            "?"
        }
    );

    println!("\n== §III-B left lists: Irving's algorithm, paper notation ==\n");
    let left = kmatch::gen::paper::section3b_left();
    let (outcome, events) = solve_traced(&left);
    print!(
        "{}",
        render_roommates_trace(&events, &NameMap::paper_tripartite())
    );
    if let Some(m) = outcome.matching() {
        let names = NameMap::paper_tripartite();
        let pairs: Vec<String> = m
            .pairs()
            .iter()
            .map(|&(a, b)| format!("({}, {})", names.of(a), names.of(b)))
            .collect();
        println!("\nstable matching: {}", pairs.join(" "));
        println!("(paper: (m, u'), (m', w), (w', u))");
    }

    println!("\n== §III-B right lists: the no-stable-matching certificate ==\n");
    let right = kmatch::gen::paper::section3b_right();
    let (_, events) = solve_traced(&right);
    // Show just the tail: the certificate.
    let text = render_roommates_trace(&events, &NameMap::paper_tripartite());
    for line in text
        .lines()
        .rev()
        .take(4)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
    {
        println!("{line}");
    }

    println!("\n== A binding tree and its parallel schedule ==\n");
    let tree = BindingTree::balanced_binary(7);
    print!("{}", render_tree(&tree));

    println!("\n== Fig. 3 families rendered ==\n");
    let inst = kmatch::gen::paper::fig3_tripartite();
    let matching = bind(&inst, &BindingTree::new(3, vec![(0, 1), (1, 2)]).unwrap());
    print!("{}", render_kary_matching(&inst, &matching));
}
