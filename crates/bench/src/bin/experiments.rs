//! Regenerates every paper-mapped experiment table (E1–E13 in DESIGN.md).
//!
//! ```text
//! cargo run -p kmatch-bench --bin experiments --release [-- --quick]
//! ```
//!
//! Output is the source for EXPERIMENTS.md's paper-vs-measured records.

use kmatch_bench::{cells, rng, Table};
use kmatch_core::theorems::{binding_class_sizes, underbinding_unstable_instance};
use kmatch_core::{
    all_priority_trees, bind, bind_with_stats, find_weak_blocking_family, is_kary_stable,
    is_partition_stable, is_quorum_stable, is_weakly_stable, partitioned_bind, theorem1_verdict,
    GenderPartition, GenderPriorities,
};
use kmatch_graph::bitonic::{bitonic_tree_count, count_bitonic_trees};
use kmatch_graph::{
    all_trees, even_odd_path_schedule, random_tree, tree_count, tree_edge_coloring, BindingTree,
};
use kmatch_gs::{gale_shapley, mean_proposer_rank, mean_responder_rank};
use kmatch_parallel::{crew_cost, default_threads, erew_cost, parallel_bind_scheduled, steal_seed};
use kmatch_prefs::gen::paper;
use kmatch_prefs::gen::structured::{cyclic_bipartite, identical_bipartite};
use kmatch_prefs::gen::uniform::{uniform_bipartite, uniform_kpartite};
use kmatch_roommates::brute::all_stable_roommates_matchings;
use kmatch_roommates::matching::is_roommates_stable;
use kmatch_roommates::{
    fair_stable_marriage, oriented_stable_marriage, solve, RoommatesOutcome, SmpOrientation,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    t1_gs_baseline(quick);
    t2_theorem1(quick);
    t3_section3b_traces();
    t4_fair_smp(quick);
    t5_theorem2_all_trees(quick);
    t6_theorem3_bound(quick);
    t7_theorem4_tightness();
    t8_corollary1_erew(quick);
    t9_corollary2_even_odd(quick);
    t10_crew_replication();
    t11_fig5_weak_condition(quick);
    t12_algorithm2(quick);
    t13_cayley(quick);
    t14_quorum(quick);
    t15_partitioned(quick);
    t16_baseline_models(quick);
    t17_lattice_fairness(quick);
    t18_distributed(quick);
    t19_tree_choice(quick);
    println!("\nAll experiment tables regenerated.");
}

/// T1 / E1 — GS baseline: proposal counts vs the n² bound, plus the
/// proposer-bias measurement of §II-A.
fn t1_gs_baseline(quick: bool) {
    let mut t = Table::new(&[
        "n",
        "workload",
        "proposals",
        "n^2",
        "ratio",
        "men rank",
        "women rank",
    ]);
    let sizes: &[usize] = if quick {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    let mut r = rng(1);
    for &n in sizes {
        let workloads: Vec<(&str, kmatch_prefs::BipartiteInstance)> = vec![
            ("uniform", uniform_bipartite(n, &mut r)),
            ("identical", identical_bipartite(n)),
            ("cyclic", cyclic_bipartite(n)),
        ];
        for (name, inst) in workloads {
            let out = gale_shapley(&inst);
            t.row(cells!(
                n,
                name,
                out.stats.proposals,
                n * n,
                format!("{:.3}", out.stats.proposals as f64 / (n * n) as f64),
                format!("{:.2}", mean_proposer_rank(&inst, &out.matching)),
                format!("{:.2}", mean_responder_rank(&inst, &out.matching))
            ));
        }
    }
    t.print("T1 (§II-A): GS proposals <= n^2; proposer bias");
}

/// T2 / E2 — Theorem 1: adversarial instances have a perfect but no stable
/// binary matching for every k > 2.
fn t2_theorem1(quick: bool) {
    let mut t = Table::new(&["k", "n", "method", "perfect?", "stable?"]);
    let grid: &[(usize, usize)] = if quick {
        &[(3, 2), (4, 2), (3, 8)]
    } else {
        &[
            (3, 2),
            (3, 4),
            (4, 1),
            (4, 2),
            (5, 2),
            (3, 16),
            (4, 16),
            (6, 16),
            (8, 32),
        ]
    };
    for &(k, n) in grid {
        if (k * n) % 2 != 0 {
            continue;
        }
        let v = theorem1_verdict(k, n);
        let method = if k * n <= 12 { "exhaustive" } else { "irving" };
        t.row(cells!(k, n, method, v.perfect_exists, v.stable_exists));
    }
    t.print("T2 (Theorem 1): no stable binary matching for k > 2");
}

/// T3 / E3 — the paper's §III-B worked traces, reproduced exactly.
fn t3_section3b_traces() {
    let mut t = Table::new(&["instance", "paper outcome", "measured outcome", "agrees"]);
    // Left lists: stable; paper's matching (m,u'), (m',w), (w',u).
    let left = paper::section3b_left();
    let out = solve(&left);
    let left_result = match &out {
        RoommatesOutcome::Stable { matching, .. } => {
            assert!(is_roommates_stable(&left, matching));
            let paper_matching =
                kmatch_roommates::matching::RoommatesMatching::new(vec![5, 2, 1, 4, 3, 0]);
            let all = all_stable_roommates_matchings(&left);
            format!(
                "stable; paper matching also stable: {}; total stable: {}",
                all.contains(&paper_matching),
                all.len()
            )
        }
        RoommatesOutcome::NoStableMatching { .. } => "NO STABLE (bug!)".to_string(),
    };
    t.row(cells!(
        "§III-B left",
        "stable: (m,u'),(m',w),(w',u)",
        left_result,
        out.is_stable()
    ));
    // Right lists: no stable matching (u's list empties).
    let right = paper::section3b_right();
    let out = solve(&right);
    t.row(cells!(
        "§III-B right",
        "no stable matching",
        if out.is_stable() {
            "stable (bug!)"
        } else {
            "no stable matching"
        },
        !out.is_stable()
    ));
    t.print("T3 (§III-B): paper trace regression");
}

/// T4 / E4 — fair SMP: the deadlock example and random markets.
fn t4_fair_smp(quick: bool) {
    let mut t = Table::new(&["solver", "men rank", "women rank", "|men-women|"]);
    let trials = if quick { 5 } else { 30 };
    let n = 64;
    let mut r = rng(4);
    let mut acc = vec![(0.0, 0.0); 4];
    for _ in 0..trials {
        let inst = uniform_bipartite(n, &mut r);
        let solutions = [
            gale_shapley(&inst).matching,
            oriented_stable_marriage(&inst, SmpOrientation::SeedFromWomen).matching,
            fair_stable_marriage(&inst).matching,
            oriented_stable_marriage(&inst, SmpOrientation::SeedFromMen).matching,
        ];
        for (i, m) in solutions.iter().enumerate() {
            acc[i].0 += mean_proposer_rank(&inst, m);
            acc[i].1 += mean_responder_rank(&inst, m);
        }
    }
    for (name, (m, w)) in [
        "GS (men propose)",
        "roommates man-opt",
        "roommates fair",
        "roommates woman-opt",
    ]
    .iter()
    .zip(acc)
    {
        let (m, w) = (m / trials as f64, w / trials as f64);
        t.row(cells!(
            name,
            format!("{m:.2}"),
            format!("{w:.2}"),
            format!("{:.2}", (m - w).abs())
        ));
    }
    t.print("T4 (§III-B end, Fig. 2): procedural fairness via roommates");
}

/// T5 / E5 — Theorem 2: every binding tree yields a stable k-ary matching.
fn t5_theorem2_all_trees(quick: bool) {
    let mut t = Table::new(&["k", "n", "trees checked", "stable", "distinct matchings"]);
    let grid: &[(usize, usize, bool)] = if quick {
        &[(3, 3, true), (4, 3, true)]
    } else {
        &[(3, 4, true), (4, 4, true), (5, 3, true), (8, 4, false)]
    };
    for &(k, n, exhaustive) in grid {
        let mut r = rng(5);
        let inst = uniform_kpartite(k, n, &mut r);
        let trees: Vec<BindingTree> = if exhaustive {
            all_trees(k, 200)
        } else {
            (0..40).map(|_| random_tree(k, &mut r)).collect()
        };
        let mut stable = 0usize;
        let mut distinct = std::collections::HashSet::new();
        for tree in &trees {
            let m = bind(&inst, tree);
            if is_kary_stable(&inst, &m) {
                stable += 1;
            }
            distinct.insert(m.to_tuples());
        }
        t.row(cells!(k, n, trees.len(), stable, distinct.len()));
    }
    t.print("T5 (Theorem 2): Algorithm 1 is stable for every binding tree");
}

/// T6 / E6 — Theorem 3: total proposals vs (k−1)·n².
fn t6_theorem3_bound(quick: bool) {
    let mut t = Table::new(&["k", "n", "workload", "proposals", "(k-1)n^2", "ratio"]);
    let grid: &[(usize, usize)] = if quick {
        &[(3, 32), (8, 32)]
    } else {
        &[(2, 64), (3, 64), (5, 64), (8, 64), (16, 64), (8, 256)]
    };
    let mut r = rng(6);
    for &(k, n) in grid {
        for workload in ["uniform", "master"] {
            let inst = match workload {
                "uniform" => uniform_kpartite(k, n, &mut r),
                _ => kmatch_prefs::gen::structured::master_list_kpartite(k, n, false),
            };
            let tree = BindingTree::path(k);
            let out = bind_with_stats(&inst, &tree);
            let bound = ((k - 1) * n * n) as u64;
            t.row(cells!(
                k,
                n,
                workload,
                out.total_proposals(),
                bound,
                format!("{:.3}", out.total_proposals() as f64 / bound as f64)
            ));
        }
    }
    t.print("T6 (Theorem 3): proposals <= (k-1) n^2; master lists approach the bound");
}

/// T7 / E7 — Theorem 4: k−1 bindings is tight.
fn t7_theorem4_tightness() {
    let mut t = Table::new(&["bindings", "edges", "class sizes", "valid k-ary matching?"]);
    let inst = paper::theorem4_cycle_tripartite();
    for (label, edges) in [
        ("k-1 = 2 (tree)", vec![(0u16, 1u16), (1, 2)]),
        ("k-1 = 2 (tree)", vec![(0, 1), (0, 2)]),
        ("k = 3 (cycle)", vec![(0, 1), (1, 2), (0, 2)]),
    ] {
        let sizes = binding_class_sizes(&inst, &edges);
        let valid = sizes.iter().all(|&s| s == 3) && sizes.len() == inst.n();
        t.row(cells!(
            label,
            format!("{edges:?}"),
            format!("{sizes:?}"),
            valid
        ));
    }
    t.print("T7a (Theorem 4): k bindings force a cycle that collapses families");

    let mut t = Table::new(&["completion", "blocked?", "blocking family"]);
    for completion in [vec![0u32, 1], vec![1, 0], vec![0, 1, 2], vec![2, 0, 1]] {
        let (inst, matching) = underbinding_unstable_instance(&completion);
        let bf = kmatch_core::find_blocking_family(&inst, &matching);
        t.row(cells!(
            format!("{completion:?}"),
            bf.is_some(),
            bf.map(|b| format!("{:?}", b.members)).unwrap_or_default()
        ));
    }
    t.print("T7b (Theorem 4): with k-2 bindings, every completion is blockable");
}

/// T8 / E8 — Corollary 1: schedule depth = Δ; EREW iterations ≤ Δ·n².
fn t8_corollary1_erew(quick: bool) {
    let mut t = Table::new(&[
        "tree",
        "k",
        "Δ",
        "rounds",
        "seq iters",
        "EREW iters",
        "Δn^2",
        "speedup",
    ]);
    let (k, n) = if quick {
        (8usize, 32usize)
    } else {
        (12usize, 64usize)
    };
    let mut r = rng(8);
    let inst = uniform_kpartite(k, n, &mut r);
    for (name, tree) in [
        ("path", BindingTree::path(k)),
        ("balanced", BindingTree::balanced_binary(k)),
        ("random", random_tree(k, &mut r)),
        ("star", BindingTree::star(k, 0)),
    ] {
        let schedule = tree_edge_coloring(&tree);
        let par = parallel_bind_scheduled(&inst, &tree, &schedule, default_threads(), steal_seed());
        let cost = erew_cost(&tree, &par.per_edge, None);
        let seq: u64 = par.per_edge.iter().map(|s| s.proposals).sum();
        t.row(cells!(
            name,
            k,
            tree.max_degree(),
            cost.depth(),
            seq,
            cost.total_iterations(),
            tree.max_degree() * n * n,
            format!("{:.2}x", seq as f64 / cost.total_iterations() as f64)
        ));
    }
    t.print("T8 (Corollary 1): EREW rounds = Δ; iterations <= Δ n^2");
}

/// T9 / E9 — Corollary 2: the even–odd path schedule is always 2 rounds
/// and the executor's matching equals the sequential one.
fn t9_corollary2_even_odd(quick: bool) {
    let mut t = Table::new(&["k", "rounds", "processors", "matches sequential"]);
    let ks: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16, 32, 64] };
    let n = 16;
    let mut r = rng(9);
    for &k in ks {
        let inst = uniform_kpartite(k, n, &mut r);
        let tree = BindingTree::path(k);
        let schedule = even_odd_path_schedule(&tree).expect("path");
        let par = parallel_bind_scheduled(&inst, &tree, &schedule, default_threads(), steal_seed());
        let seq = bind_with_stats(&inst, &tree);
        t.row(cells!(
            k,
            schedule.depth(),
            schedule.width(),
            par.matching == seq.matching
        ));
    }
    t.print("T9 (Corollary 2, Fig. 4): even-odd schedule = 2 rounds for every k");
}

/// T10 / E10 — CREW emulation: ⌈log₂ Δ⌉ replication rounds.
fn t10_crew_replication() {
    let mut t = Table::new(&[
        "k (star)",
        "Δ",
        "repl. rounds",
        "= ceil(log2 Δ)",
        "CREW iters",
    ]);
    let n = 16;
    let mut r = rng(10);
    for k in [3usize, 5, 9, 17, 33] {
        let inst = uniform_kpartite(k, n, &mut r);
        let tree = BindingTree::star(k, 0);
        let out = bind_with_stats(&inst, &tree);
        let cost = crew_cost(&tree, &out.per_edge);
        let delta = tree.max_degree();
        let expected = (delta as f64).log2().ceil() as u32;
        t.row(cells!(
            k,
            delta,
            cost.replication_rounds,
            cost.replication_rounds == expected,
            cost.total_iterations()
        ));
    }
    t.print("T10 (§IV-C): EREW emulates CREW after ceil(log2 Δ) replication rounds");
}

/// T11 / E11 — Fig. 5: non-bitonic trees admit weakened blocking families;
/// bitonic trees never do.
fn t11_fig5_weak_condition(quick: bool) {
    let trials: u64 = if quick { 30 } else { 200 };
    let (k, n) = (4usize, 3usize);
    let pr = GenderPriorities::by_id(k);
    let fig5a = BindingTree::new(4, vec![(3, 0), (0, 1), (1, 2)]).unwrap();
    let fig5b = BindingTree::new(4, vec![(1, 3), (3, 2), (2, 0)]).unwrap();
    let mut t = Table::new(&["tree", "bitonic", "weak-unstable / trials", "full-unstable"]);
    for (name, tree) in [("Fig. 5(a) 4-1-2-3", &fig5a), ("Fig. 5(b) 2-4-3-1", &fig5b)] {
        let mut weak_fail = 0;
        let mut full_fail = 0;
        for seed in 0..trials {
            let inst = uniform_kpartite(k, n, &mut rng(11_000 + seed));
            let m = bind(&inst, tree);
            if !is_kary_stable(&inst, &m) {
                full_fail += 1;
            }
            if find_weak_blocking_family(&inst, &m, &pr).is_some() {
                weak_fail += 1;
            }
        }
        t.row(cells!(
            name,
            pr.is_bitonic_under(tree),
            format!("{weak_fail} / {trials}"),
            full_fail
        ));
    }
    t.print("T11 (Fig. 5): non-bitonic binding trees fail the weakened condition");
}

/// T12 / E12 — Algorithm 2: (k−1)! bitonic trees, all weakly stable.
fn t12_algorithm2(quick: bool) {
    let mut t = Table::new(&[
        "k",
        "priority trees",
        "(k-1)!",
        "all bitonic",
        "weak-stable / checks",
    ]);
    let ks: &[usize] = if quick { &[3, 4] } else { &[3, 4, 5] };
    let n = 3;
    let instances: u64 = if quick { 5 } else { 20 };
    for &k in ks {
        let pr = GenderPriorities::by_id(k);
        let trees = all_priority_trees(&pr);
        let all_bitonic = trees.iter().all(|t| pr.is_bitonic_under(t));
        let mut ok = 0usize;
        let mut total = 0usize;
        for seed in 0..instances {
            let inst = uniform_kpartite(k, n, &mut rng(12_000 + seed));
            for tree in &trees {
                total += 1;
                if is_weakly_stable(&inst, &bind(&inst, tree), &pr) {
                    ok += 1;
                }
            }
        }
        t.row(cells!(
            k,
            trees.len(),
            bitonic_tree_count(k).unwrap(),
            all_bitonic,
            format!("{ok} / {total}")
        ));
    }
    t.print(
        "T12 (Theorem 5, Fig. 6, Alg. 2): priority trees count (k-1)! and defeat weak blocking",
    );
}

/// T13 / E13 — Cayley's formula and matching diversity across trees.
fn t13_cayley(quick: bool) {
    let mut t = Table::new(&[
        "k",
        "enumerated trees",
        "k^(k-2)",
        "bitonic trees",
        "(k-1)!",
    ]);
    let ks: &[usize] = if quick {
        &[3, 4, 5]
    } else {
        &[2, 3, 4, 5, 6, 7]
    };
    for &k in ks {
        let trees = all_trees(k, 20_000);
        let bitonic = count_bitonic_trees(k, 20_000);
        t.row(cells!(
            k,
            trees.len(),
            tree_count(k).unwrap(),
            bitonic,
            bitonic_tree_count(k).unwrap()
        ));
        assert_eq!(trees.len() as u128, tree_count(k).unwrap());
    }
    t.print("T13 (§IV-B): Cayley k^(k-2) binding trees; (k-1)! of them bitonic");
}

/// T14 — quorum-relaxed blocking (§VII future work, implemented as an
/// extension): how often is Algorithm 1's output stable as the quorum
/// shrinks from k (the paper's condition) toward 1?
fn t14_quorum(quick: bool) {
    let trials: u64 = if quick { 10 } else { 50 };
    let (k, n) = (3usize, 4usize);
    let mut t = Table::new(&["quorum q", "stable / trials", "note"]);
    let mut stable = vec![0usize; k + 1];
    for seed in 0..trials {
        let inst = uniform_kpartite(k, n, &mut rng(14_000 + seed));
        let m = bind(&inst, &BindingTree::path(k));
        #[allow(clippy::needless_range_loop)]
        for q in 1..=k {
            if is_quorum_stable(&inst, &m, q) {
                stable[q] += 1;
            }
        }
    }
    for q in (1..=k).rev() {
        let note = match q {
            q if q == k => "= paper's full condition (Theorem 2: always)",
            1 => "any single satisfied member blocks",
            _ => "",
        };
        t.row(cells!(q, format!("{} / {trials}", stable[q]), note));
    }
    t.print("T14 (§VII ext.): quorum-relaxed stability of Algorithm 1's output");
}

/// T15 — partitioned k-ary matching in k'-partite graphs (§VII future
/// work, block-partition case): c·k = n·k' families, block-local stability.
fn t15_partitioned(quick: bool) {
    let mut t = Table::new(&[
        "k'",
        "k",
        "n",
        "families c",
        "c*k = n*k'",
        "block-stable",
        "proposals",
    ]);
    let grid: &[(usize, usize, usize)] = if quick {
        &[(4, 2, 4), (6, 3, 4)]
    } else {
        &[(4, 2, 8), (6, 2, 8), (6, 3, 8), (8, 4, 8), (12, 3, 16)]
    };
    for &(k_total, k, n) in grid {
        let inst = uniform_kpartite(k_total, n, &mut rng(15_000 + k_total as u64));
        let partition = GenderPartition::contiguous(k_total, k);
        let out = partitioned_bind(&inst, &partition);
        let c = out.families.len();
        t.row(cells!(
            k_total,
            k,
            n,
            c,
            c * k == n * k_total,
            is_partition_stable(&inst, &partition, &out),
            out.total_proposals
        ));
    }
    t.print("T15 (§VII ext.): partitioned k-ary matching in k'-partite graphs");
}

/// T16 — the multi-dimensional baselines the paper contrasts with (§I):
/// cyclic and combination-preference 3DSM need exponential search and may
/// lack stable matchings; the paper's model is guaranteed and O((k-1)n²).
fn t16_baseline_models(quick: bool) {
    use kmatch_baselines::{
        solve_combination_exact, solve_cyclic_exact, CombinationInstance, CyclicInstance,
    };
    let trials: u64 = if quick { 10 } else { 40 };
    let n = 3usize;
    let mut t = Table::new(&[
        "model",
        "solvable / trials",
        "avg matchings inspected",
        "per-member prefs",
    ]);
    let mut cyc = (0u64, 0u64);
    let mut comb = (0u64, 0u64);
    let mut kary_props = 0u64;
    for seed in 0..trials {
        let mut r = rng(16_000 + seed);
        let ci = CyclicInstance::random(n, &mut r);
        let (found, inspected) = solve_cyclic_exact(&ci);
        cyc.0 += found.is_some() as u64;
        cyc.1 += inspected;
        let mi = CombinationInstance::random(n, &mut r);
        let (found, inspected) = solve_combination_exact(&mi);
        comb.0 += found.is_some() as u64;
        comb.1 += inspected;
        let inst = uniform_kpartite(3, n, &mut r);
        kary_props += bind_with_stats(&inst, &BindingTree::path(3)).total_proposals();
    }
    t.row(cells!(
        "cyclic 3DSM [4]",
        format!("{} / {trials}", cyc.0),
        format!("{:.1}", cyc.1 as f64 / trials as f64),
        "n per member"
    ));
    t.row(cells!(
        "combination 3DSM [4]",
        format!("{} / {trials}", comb.0),
        format!("{:.1}", comb.1 as f64 / trials as f64),
        "n^2 per member"
    ));
    t.row(cells!(
        "paper (Algorithm 1)",
        format!("{trials} / {trials} (Theorem 2)"),
        format!("{:.1} proposals", kary_props as f64 / trials as f64),
        "2n per member"
    ));
    t.print("T16 (§I baselines): existence & cost vs the paper's k-ary model (k = 3, n = 3)");
}

/// T17 — where §III-B's fair solver sits inside the lattice of ALL stable
/// matchings (enumerated via rotations, Gusfield–Irving machinery).
fn t17_lattice_fairness(quick: bool) {
    use kmatch_gs::rotations::enumerate_stable_lattice;
    use kmatch_roommates::fair_stable_marriage;
    let trials: u64 = if quick { 5 } else { 25 };
    let n = 12usize;
    let mut t = Table::new(&["solver", "mean men rank", "mean women rank", "mean gap"]);
    let mut acc = vec![(0.0f64, 0.0f64); 5]; // gs, fair, lattice-egal, mincut-egal, woman-opt
    let mut lattice_sizes = 0usize;
    for seed in 0..trials {
        let inst = uniform_bipartite(n, &mut rng(17_000 + seed));
        let lattice = enumerate_stable_lattice(&inst, 1_000_000).expect("within limit");
        lattice_sizes += lattice.matchings.len();
        let poly = kmatch_gs::egalitarian_stable_matching(&inst).0;
        let entries = [
            gale_shapley(&inst).matching,
            fair_stable_marriage(&inst).matching,
            lattice.egalitarian(&inst).clone(),
            poly,
            kmatch_gs::responder_optimal(&inst).matching,
        ];
        for (i, m) in entries.iter().enumerate() {
            acc[i].0 += mean_proposer_rank(&inst, m);
            acc[i].1 += mean_responder_rank(&inst, m);
        }
    }
    for (name, (m, w)) in [
        "GS man-optimal",
        "roommates fair",
        "lattice egalitarian",
        "min-cut egalitarian",
        "woman-optimal",
    ]
    .iter()
    .zip(acc)
    {
        let (m, w) = (m / trials as f64, w / trials as f64);
        t.row(cells!(
            name,
            format!("{m:.2}"),
            format!("{w:.2}"),
            format!("{:.2}", (m - w).abs())
        ));
    }
    t.print(&format!(
        "T17 (§III-B + [9]): fairness vs the full stable lattice (n = {n}, avg lattice size {:.1})",
        lattice_sizes as f64 / trials as f64
    ));
}

/// T18 — distributed binding (§II-A "distributed algorithm" + §IV-C):
/// message complexity 2P..3P and critical-path communication rounds per
/// schedule, on the message-passing simulator.
fn t18_distributed(quick: bool) {
    use kmatch_distsim::distributed_bind;
    let (k, n) = if quick {
        (6usize, 16usize)
    } else {
        (10usize, 32usize)
    };
    let inst = uniform_kpartite(k, n, &mut rng(18_000));
    let mut t = Table::new(&[
        "tree",
        "schedule",
        "messages",
        "3(k-1)n^2",
        "critical rounds",
        "serial rounds",
    ]);
    for (name, tree) in [
        ("path", BindingTree::path(k)),
        ("star", BindingTree::star(k, 0)),
        ("random", random_tree(k, &mut rng(18_001))),
    ] {
        let schedules: Vec<(&str, kmatch_graph::Schedule)> = {
            let mut v = vec![("Δ-coloring", tree_edge_coloring(&tree))];
            if let Some(eo) = even_odd_path_schedule(&tree) {
                v.push(("even-odd", eo));
            }
            v
        };
        for (sname, schedule) in schedules {
            let out = distributed_bind(&inst, &tree, &schedule);
            let serial: u64 = out.per_edge.iter().map(|s| s.rounds as u64).sum();
            t.row(cells!(
                name,
                sname,
                out.total_messages,
                3 * (k - 1) * n * n,
                out.critical_path_rounds,
                serial
            ));
        }
    }
    t.print(&format!(
        "T18 (§II-A/§IV-C): distributed binding on the message-passing simulator (k = {k}, n = {n})"
    ));
}

/// T19 — §IV-B quantified: how much does binding-tree choice change family
/// happiness, and how close does random sampling get to the exhaustive
/// optimum?
fn t19_tree_choice(quick: bool) {
    use kmatch_core::{exhaustive_best_tree, optimize::mean_rank_objective, optimize_tree};
    let trials: u64 = if quick { 5 } else { 20 };
    let (k, n) = (4usize, 6usize);
    let mut t = Table::new(&["metric", "mean over instances"]);
    let (mut path_sum, mut best_sum, mut worst_sum, mut sampled_sum) = (0.0, 0.0, 0.0, 0.0);
    for seed in 0..trials {
        let mut r = rng(19_000 + seed);
        let inst = uniform_kpartite(k, n, &mut r);
        path_sum += mean_rank_objective(&inst, &bind(&inst, &BindingTree::path(k)));
        let exact = exhaustive_best_tree(&inst, 64, mean_rank_objective);
        best_sum += exact.objective;
        // Worst over all trees for the spread.
        let worst = kmatch_graph::all_trees(k, 64)
            .iter()
            .map(|tr| mean_rank_objective(&inst, &bind(&inst, tr)))
            .fold(0.0f64, f64::max);
        worst_sum += worst;
        sampled_sum += optimize_tree(&inst, 20, &mut r, mean_rank_objective).objective;
    }
    let m = trials as f64;
    t.row(cells!(
        "canonical path tree",
        format!("{:.3}", path_sum / m)
    ));
    t.row(cells!(
        "best tree (exhaustive, both orientations)",
        format!("{:.3}", best_sum / m)
    ));
    t.row(cells!("worst tree", format!("{:.3}", worst_sum / m)));
    t.row(cells!(
        "best of 20 random samples",
        format!("{:.3}", sampled_sum / m)
    ));
    t.print(&format!(
        "T19 (§IV-B quantified): binding-tree choice vs family happiness (k = {k}, n = {n}, {trials} instances)"
    ));
}
