//! Reusable scratch state for the zero-allocation Irving engine: implicit
//! phase-1 deletion thresholds plus a compact doubly-linked arena holding
//! the phase-1 survivors for phase 2, all grown once and reused across
//! solves.
//!
//! ## Two-tier reduced tables
//!
//! The reference [`crate::active::ActiveTable`] masks an `n × n` bool
//! matrix and pays for every deletion individually — on large uniform
//! instances phase 1 deletes *millions* of pairs (each a scattered write),
//! plus an O(n) rescan per truncation. The workspace exploits the
//! structure of phase-1 deletions instead:
//!
//! **Phase 1 — implicit deletions.** Every phase-1 removal comes from one
//! rule: when `y` holds a proposal from `x`, everything ranked below `x`
//! on `y`'s list dies. So the reduced table is fully described by one
//! monotone threshold per participant — `thresh[p]` = rank of the
//! proposal `p` currently holds (`NONE` = untruncated) — and the pair
//! `(p, q)` is alive iff
//!
//! ```text
//! rank_p(q) <= thresh[p]  &&  rank_q(p) <= thresh[q]
//! ```
//!
//! A truncation is a single store into `thresh`; the O(list) deletions it
//! implies are never performed. `first(x)` walks `x`'s CSR row from a
//! monotone per-participant cursor (`scan`), paying one rank probe per
//! permanently-dead entry passed — amortized O(1) per proposal.
//!
//! **Phase 2 — compact linked arena.** When phase 1 completes,
//! `RoommatesWorkspace::materialize` evaluates the predicate once per
//! still-plausible entry and packs the survivors (typically a tiny
//! fraction of the instance) into a dense arena threaded with
//! `succ`/`pred` links: `first`/`second`/`last` are O(1) pointer hops,
//! the bidirectional delete of a pair is two O(1) unlinks, and
//! `truncate_below` severs a tail in O(1) plus O(1) per actually-deleted
//! entry. Emptiness is signalled by the delete that empties a list
//! (`len` hitting zero in `RoommatesWorkspace::unlink`), replacing the
//! reference's O(n) post-rotation scan.
//!
//! Entries are only ever deleted, never restored, which is what makes the
//! `scan` cursors here and the monotone seed cursors in [`crate::engine`]
//! sound.

use std::ops::Range;

use kmatch_exec::{default_threads, run_slots, steal_seed};
use kmatch_prefs::RoommatesOracle;

/// Niche marker for "no node / no participant / untruncated" in the
/// workspace tables.
pub(crate) const NONE: u32 = u32::MAX;

/// Strip width of the phase-1 liveness scan in
/// [`RoommatesWorkspace::p1_first`]: candidates are gathered and their
/// partner-side thresholds probed this many at a time, reduced to a
/// branchless liveness bitmask. Mirrors `PROPOSAL_STRIP` on the GS side.
pub(crate) const P1_LANES: usize = 8;

/// Most tasks a walk is cut into ([`split_rows`]). The cut depends on
/// the instance alone, never on the thread budget, so every budget
/// computes the same task outputs into the same buffers; and a task's
/// output buffer costs memory of its own, so their number is bounded.
pub(crate) const WALK_TASKS: u64 = 16;

/// Least work, in row-walk candidates, of a task ([`split_rows`]): a
/// small walk is one task.
pub(crate) const MIN_TASK_WORK: u64 = 1 << 14;

/// Least work, in row-walk candidates, that each thread of a split walk
/// must get: below `2 ·` this a walk runs on the calling thread. Set at
/// the measured crossover of the arena build over the Feistel oracle,
/// where two threads first beat one (see `CHANGES.md`).
pub(crate) const MIN_WORK_PER_THREAD: u64 = 1 << 16;

/// Threads a walk of `work` candidates runs on under thread `budget`
/// (0 = the host's parallelism): 1 unless every thread gets at least
/// [`MIN_WORK_PER_THREAD`]. The budget 0 is resolved only for a walk
/// large enough to split.
pub(crate) fn walk_threads(budget: usize, work: u64) -> usize {
    let most = usize::try_from(work / MIN_WORK_PER_THREAD).unwrap_or(usize::MAX);
    if most < 2 || budget == 1 {
        return 1;
    }
    let budget = if budget == 0 {
        default_threads()
    } else {
        budget
    };
    budget.min(most)
}

/// Cut rows `0..n`, weighing `total` together and row `p` weighing
/// `work(p)`, into at most [`WALK_TASKS`] consecutive task ranges of
/// about equal work, each at least [`MIN_TASK_WORK`]: range `t` is
/// `bounds[t]..bounds[t + 1]`.
pub(crate) fn split_rows(n: usize, total: u64, work: impl Fn(u32) -> u64, bounds: &mut Vec<u32>) {
    let task_work = total.div_ceil(WALK_TASKS).max(MIN_TASK_WORK);
    bounds.clear();
    bounds.push(0);
    let mut open = 0u64;
    for p in 0..n as u32 {
        open += work(p);
        if open >= task_work {
            bounds.push(p + 1);
            open = 0;
        }
    }
    // Trailing rows that weigh nothing join the last task.
    if n > 0 && bounds[bounds.len() - 1] != n as u32 {
        match bounds.len() {
            len if len > 1 && open == 0 => bounds[len - 1] = n as u32,
            _ => bounds.push(n as u32),
        }
    }
}

/// Pass A of [`RoommatesWorkspace::materialize`] over `rows`, written
/// over `out`: for each row `p` with a live pair `(p, q)`, `q > p`, in
/// its window, a row marker `NONE << 32 | p`, then one record
/// `pos << 32 | q` per such pair in position order (`pos` = the pair's
/// position in `p`'s row, never [`NONE`]).
///
/// Row-batched: gather a block of candidates, then probe the
/// partner-side liveness of the higher ids together — the per-row oracle
/// state is amortized and the independent probes overlap.
fn upper_survivors<O: RoommatesOracle>(
    inst: &O,
    thresh: &[u32],
    scan: &[u32],
    rows: Range<u32>,
    out: &mut Vec<u64>,
) {
    const MAT_BLOCK: usize = 64;
    let mut qs = [0u32; MAT_BLOCK];
    let mut probe = [0u32; MAT_BLOCK];
    let mut at = [0u32; MAT_BLOCK];
    let mut limits = [0u32; MAT_BLOCK];
    let mut live = [false; MAT_BLOCK];
    out.clear();
    for p in rows {
        let end = inst.row_len(p).min(thresh[p as usize].saturating_add(1));
        let mut pos = scan[p as usize];
        let mut marked = false;
        while pos < end {
            let w = ((end - pos) as usize).min(MAT_BLOCK);
            inst.candidates_into(p, pos, &mut qs[..w]);
            let mut m = 0usize;
            for (j, &q) in qs[..w].iter().enumerate() {
                probe[m] = q;
                at[m] = pos + j as u32;
                m += usize::from(q > p);
            }
            for (limit, &q) in limits.iter_mut().zip(&probe[..m]) {
                *limit = thresh[q as usize].saturating_add(1);
            }
            inst.ranks_lt_into(&probe[..m], p, &limits[..m], &mut live[..m]);
            for k in (0..m).filter(|&k| live[k]) {
                if !marked {
                    out.push(u64::from(NONE) << 32 | u64::from(p));
                    marked = true;
                }
                out.push(u64::from(at[k]) << 32 | u64::from(probe[k]));
            }
            pos += w as u32;
        }
    }
}

/// The records of one [`upper_survivors`] buffer as `(p, pos, q)`: a
/// buffer starts with a row marker, and each marker names the row of the
/// records after it.
fn survivor_records(buf: &[u64]) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
    let mut row = NONE;
    buf.iter().filter_map(move |&r| {
        let (pos, q) = ((r >> 32) as u32, r as u32);
        if pos == NONE {
            row = q;
            None
        } else {
            Some((row, pos, q))
        }
    })
}

/// Reusable scratch buffers for the fast Irving engine.
///
/// A workspace grows to the largest instance it has seen and never
/// shrinks; solving through one repeatedly is allocation-free in the
/// steady state (the only per-solve allocation is the partner array owned
/// by a returned stable matching — unsolvable instances allocate nothing).
/// A walk large enough to split across threads
/// ([`RoommatesWorkspace::set_threads`]) adds the executor's bookkeeping
/// and thread spawns, a fixed count per walk whatever the size.
/// Workspaces are cheap to create and freely reusable across unrelated
/// instances of any size.
///
/// ```
/// use kmatch_roommates::{solve_reference, RoommatesWorkspace};
/// use kmatch_prefs::gen::paper::section3b_left;
///
/// let inst = section3b_left();
/// let mut ws = RoommatesWorkspace::new();
/// let fast = ws.solve(&inst);
/// let reference = solve_reference(&inst);
/// assert_eq!(fast.matching(), reference.matching());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RoommatesWorkspace {
    // ---- phase 1: implicit deletions via rank thresholds ----
    /// `thresh[p]`: highest rank still alive on `p`'s own side — the rank
    /// of the proposal `p` currently holds — or [`NONE`] (= `u32::MAX`,
    /// so `rank <= thresh[p]` is trivially true) before `p` receives one.
    pub(crate) thresh: Vec<u32>,
    /// `scan[p]`: first possibly-alive rank position of `p`'s CSR row.
    /// Monotone: every position left of it is permanently dead.
    pub(crate) scan: Vec<u32>,
    /// `holds[p]`: proposer whose proposal `p` currently holds, or [`NONE`].
    pub(crate) holds: Vec<u32>,
    /// Stack of participants with an outstanding proposal to make.
    pub(crate) free: Vec<u32>,
    // ---- phase 2: doubly-linked arena over the phase-1 survivors ----
    /// Survivor partner ids, best-first per row (the arena node space).
    pub(crate) entries: Vec<u32>,
    /// Arena row offsets: `p`'s survivors are nodes `off[p]..off[p + 1]`.
    pub(crate) off: Vec<u32>,
    /// `succ[e]`: next surviving node in the same row, or [`NONE`].
    pub(crate) succ: Vec<u32>,
    /// `pred[e]`: previous surviving node in the same row, or [`NONE`].
    pub(crate) pred: Vec<u32>,
    /// `alive[e]`: is arena node `e` still in its reduced list?
    pub(crate) alive: Vec<bool>,
    /// `head[p]`: node of `p`'s most preferred surviving entry, or [`NONE`].
    pub(crate) head: Vec<u32>,
    /// `tail[p]`: node of `p`'s least preferred surviving entry, or [`NONE`].
    pub(crate) tail: Vec<u32>,
    /// Surviving entries per participant (arena only — phase 2).
    pub(crate) len: Vec<u32>,
    // ---- arena build scratch ----
    /// Row ranges of the arena build's tasks (see [`split_rows`]).
    pub(crate) task_rows: Vec<u32>,
    /// One buffer per arena-build task: the upper survivors of its rows
    /// (see `upper_survivors`).
    pub(crate) survivors: Vec<Vec<u64>>,
    // ---- phase-2 rotation scratch ----
    /// `pos[p]`: index of `p` in the current rotation walk, or [`NONE`]
    /// (cleared back to [`NONE`] for walked entries after each rotation).
    pub(crate) pos: Vec<u32>,
    /// The rotation walk (tail prefix + cycle).
    pub(crate) seq: Vec<u32>,
    /// The rotation cycle `x_i`.
    pub(crate) xs: Vec<u32>,
    /// `ys[i] = first(xs[i])` at discovery time.
    pub(crate) ys: Vec<u32>,
    /// Elimination targets `(y_{i+1}, x_i)`, gathered before any deletion
    /// (the arena build borrows it before phase 2 to sort a row).
    pub(crate) targets: Vec<(u32, u32)>,
    // ---- stable-partition scratch (partition runs only) ----
    /// `frozen[p]`: `p` belongs to an extracted party (skip in seeding).
    pub(crate) frozen: Vec<bool>,
    /// `pi[p]`: partition successor under construction (see
    /// [`crate::partition`]).
    pub(crate) pi: Vec<u32>,
    /// Thread budget of the arena build and the partition check (0 = the
    /// host's parallelism); see [`RoommatesWorkspace::set_threads`].
    pub(crate) threads: usize,
}

impl RoommatesWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        RoommatesWorkspace::default()
    }

    /// A workspace pre-sized for instances of up to `n` participants with
    /// up to `entries` total preference entries (complete lists have
    /// `n·(n−1)`).
    pub fn with_capacity(n: usize, entries: usize) -> Self {
        // Arena-build tasks, as `split_rows` cuts a walk over every
        // entry: each holds at most one upper survivor per candidate it
        // walks, and a marker per row.
        let task_work = (entries as u64).div_ceil(WALK_TASKS).max(MIN_TASK_WORK);
        let tasks = (entries as u64).div_ceil(task_work).max(1) as usize;
        let per_task = (entries / 2).min(task_work as usize + n) + n;
        RoommatesWorkspace {
            thresh: Vec::with_capacity(n),
            scan: Vec::with_capacity(n),
            holds: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            entries: Vec::with_capacity(entries),
            off: Vec::with_capacity(n + 1),
            succ: Vec::with_capacity(entries),
            pred: Vec::with_capacity(entries),
            alive: Vec::with_capacity(entries),
            head: Vec::with_capacity(n),
            tail: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
            pos: Vec::with_capacity(n),
            seq: Vec::with_capacity(n),
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            targets: Vec::with_capacity(n),
            task_rows: Vec::with_capacity(tasks + 1),
            survivors: (0..tasks).map(|_| Vec::with_capacity(per_task)).collect(),
            frozen: Vec::new(),
            pi: Vec::new(),
            threads: 0,
        }
    }

    /// Set the thread budget of the walks a solve may split: the phase-2
    /// arena build and the partition check of an escalating solve. `0`
    /// (the default) means the host's parallelism, read only when a walk
    /// is large enough to split; `1` keeps every walk on the calling
    /// thread, as batch workers do so that nested use never
    /// oversubscribes the host. Outcomes, statistics and the arena are
    /// the same for every budget — phase 1 and the rotations always run
    /// serially.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Bytes currently held by the workspace's scratch buffers (capacity,
    /// not length — the steady-state footprint across reuse). The
    /// n-scaling rows of `bench_roommates_json` record this next to peak
    /// RSS so the O(n)-memory claim of the lazy-oracle path is a number,
    /// not an assertion. Mirrors `GsWorkspace::resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.thresh.capacity() * size_of::<u32>()
            + self.scan.capacity() * size_of::<u32>()
            + self.holds.capacity() * size_of::<u32>()
            + self.free.capacity() * size_of::<u32>()
            + self.entries.capacity() * size_of::<u32>()
            + self.off.capacity() * size_of::<u32>()
            + self.succ.capacity() * size_of::<u32>()
            + self.pred.capacity() * size_of::<u32>()
            + self.alive.capacity() * size_of::<bool>()
            + self.head.capacity() * size_of::<u32>()
            + self.tail.capacity() * size_of::<u32>()
            + self.len.capacity() * size_of::<u32>()
            + self.pos.capacity() * size_of::<u32>()
            + self.seq.capacity() * size_of::<u32>()
            + self.xs.capacity() * size_of::<u32>()
            + self.ys.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<(u32, u32)>()
            + self.task_rows.capacity() * size_of::<u32>()
            + self.survivors.capacity() * size_of::<Vec<u64>>()
            + self
                .survivors
                .iter()
                .map(|b| b.capacity() * size_of::<u64>())
                .sum::<usize>()
            + self.frozen.capacity() * size_of::<bool>()
            + self.pi.capacity() * size_of::<u32>()
    }

    /// Reset the phase-1 state (and all scratch) for `inst` — O(n), no
    /// per-entry work. The phase-2 arena is rebuilt later by
    /// [`RoommatesWorkspace::materialize`]. Returns whether the phase-1
    /// buffers had to grow (the metrics fresh/reuse signal; the arena
    /// grows lazily in `materialize` and tracks the same high-water mark).
    pub(crate) fn reset<I: RoommatesOracle>(&mut self, inst: &I) -> bool {
        let n = inst.n();
        let fresh =
            self.thresh.capacity() < n || self.holds.capacity() < n || self.free.capacity() < n;
        self.thresh.clear();
        self.thresh.resize(n, NONE);
        self.scan.clear();
        self.scan.resize(n, 0);
        self.holds.clear();
        self.holds.resize(n, NONE);
        self.free.clear();
        self.free.extend((0..n as u32).rev());
        self.pos.clear();
        self.pos.resize(n, NONE);
        self.seq.clear();
        self.xs.clear();
        self.ys.clear();
        self.targets.clear();
        // Strict runs read an empty `frozen`; partition runs size both.
        self.frozen.clear();
        self.pi.clear();
        fresh
    }

    /// Most preferred partner still alive on `x`'s *phase-1* list, or
    /// `None` if the list is empty (the no-stable-matching signal).
    ///
    /// Walks `x`'s row from the monotone `scan` cursor, probing the
    /// partner-side threshold for each candidate. Every position passed is
    /// permanently dead (thresholds only tighten), so the cursor never
    /// revisits it: total walk length over a whole solve is bounded by the
    /// entries phase 1 deletes, amortized O(1) per proposal.
    /// Phase-1 liveness probes ask `rank_lt(q, p, thresh[q] + 1)` — the
    /// `rank < thresh + 1` form instead of `rank <= thresh` so that an
    /// [`kmatch_prefs::UNRANKED`] probe (`u32::MAX`, from a truncated
    /// oracle's out-of-cut pair) is dead even against the untruncated
    /// [`NONE`] threshold: both sentinels saturate, and `u32::MAX <
    /// u32::MAX` is false. On complete lists every rank is finite and the
    /// two forms are equal, so the phase-1 schedule is byte-identical.
    pub(crate) fn p1_first<I: RoommatesOracle>(&mut self, inst: &I, x: u32) -> Option<u32> {
        // Own-side truncation bound: positions above thresh[x] are dead.
        // `thresh` is the rank of the pair x currently holds — that pair
        // is alive, so the cursor can never sit beyond the bound.
        let end = inst
            .row_len(x)
            .min(self.thresh[x as usize].saturating_add(1));
        let mut h = self.scan[x as usize];
        debug_assert!(h <= end, "scan cursor past the live bound");
        // Strip scan: gather a strip of candidates (sequential row loads),
        // then probe all their partner-side thresholds into a branchless
        // liveness mask — the independent rank loads overlap instead of
        // serializing behind one compare-and-branch per position. The
        // result is the same first live candidate the scalar walk finds
        // (lanes after it are probed read-only, which is side-effect
        // free), so the phase-1 schedule is untouched.
        while h + P1_LANES as u32 <= end {
            let mut qs = [0u32; P1_LANES];
            inst.candidates_into(x, h, &mut qs);
            let mut limits = [0u32; P1_LANES];
            for (j, &q) in qs.iter().enumerate() {
                limits[j] = self.thresh[q as usize].saturating_add(1);
            }
            let mut live = [false; P1_LANES];
            inst.ranks_lt_into(&qs, x, &limits, &mut live);
            let mut mask = 0u32;
            for (j, &l) in live.iter().enumerate() {
                mask |= (l as u32) << j;
            }
            if mask != 0 {
                let j = mask.trailing_zeros();
                self.scan[x as usize] = h + j;
                return Some(qs[j as usize]);
            }
            h += P1_LANES as u32;
        }
        // Sub-strip tail: the scalar walk over the last few positions.
        while h < end {
            let q = inst.candidate(x, h);
            if inst.rank_lt(q, x, self.thresh[q as usize].saturating_add(1)) {
                self.scan[x as usize] = h;
                return Some(q);
            }
            h += 1;
        }
        self.scan[x as usize] = h;
        None
    }

    /// Evaluate the phase-1 liveness predicate once per still-plausible
    /// entry and pack the survivors into the doubly-linked arena phase 2
    /// runs on. Rows scan `scan[p]..=thresh[p]` only, so the cost is
    /// O(Σ thresh) ≤ O(total entries), and the arena itself is as small
    /// as the reduced tables actually are.
    ///
    /// Two passes, the same for every thread budget:
    ///
    /// * **A — upper survivors**, in tasks over ranges of rows
    ///   ([`split_rows`]). Only candidates `q > p` cost a partner-side
    ///   liveness probe: the predicate is symmetric, so each pair is
    ///   decided once, from its lower id. A task writes each surviving
    ///   pair with its position in `p`'s row, 8 bytes a pair, into a
    ///   buffer the workspace owns. The rows a task reads do not depend
    ///   on any other task, so the tasks run on the executor when the
    ///   walk is large enough ([`walk_threads`]) and the oracle can be
    ///   shared ([`RoommatesOracle::shared`]), and in id order on the
    ///   calling thread otherwise.
    /// * **B — linking**, serial and O(survivors): probe each pair's
    ///   position in `q`'s row (`rank_of(q, p)`, one probe per pair —
    ///   about 1% of the walk's probes), put both ends of every pair into
    ///   their rows, order each row by position and thread the row links.
    ///   The arena is the one the scalar predicate walk packs, whatever
    ///   ran pass A.
    pub(crate) fn materialize<I: RoommatesOracle>(&mut self, inst: &I) {
        let n = inst.n();
        let (thresh, scan) = (&self.thresh, &self.scan);
        let window = |p: u32| {
            let end = inst.row_len(p).min(thresh[p as usize].saturating_add(1));
            u64::from(end.saturating_sub(scan[p as usize]))
        };
        let work = (0..n as u32).map(window).sum();
        split_rows(n, work, window, &mut self.task_rows);
        let tasks = self.task_rows.len() - 1;
        if self.survivors.len() < tasks {
            self.survivors.resize_with(tasks, Vec::new);
        }
        let threads = walk_threads(self.threads, work);
        let rows = &self.task_rows;
        let task_rows = |t: usize| rows[t]..rows[t + 1];
        let bufs = &mut self.survivors[..tasks];
        match if threads > 1 { inst.shared() } else { None } {
            Some(view) => {
                run_slots(bufs, threads, steal_seed(), |t, buf| {
                    upper_survivors(&view, thresh, scan, task_rows(t), buf)
                });
            }
            None => {
                for (t, buf) in bufs.iter_mut().enumerate() {
                    upper_survivors(inst, thresh, scan, task_rows(t), buf);
                }
            }
        }
        self.link_arena(inst, n, tasks);
    }

    /// Pass B of [`RoommatesWorkspace::materialize`]: pack the upper
    /// survivors of the first `tasks` task buffers, in task-id order,
    /// into the linked arena. The position of each pair in its higher
    /// row is probed here, one `rank_of` per pair.
    fn link_arena<I: RoommatesOracle>(&mut self, inst: &I, n: usize, tasks: usize) {
        let survivors = &self.survivors[..tasks];
        // Row sizes: a surviving pair sits in both of its rows.
        self.off.clear();
        self.off.resize(n + 1, 0);
        for (p, _, q) in survivors.iter().flat_map(|b| survivor_records(b)) {
            self.off[p as usize + 1] += 1;
            self.off[q as usize + 1] += 1;
        }
        for p in 0..n {
            self.off[p + 1] += self.off[p];
        }
        let total = self.off[n] as usize;
        // Scatter each pair's ends into their rows, the partner into
        // `entries` and its position into `pred`, with `tail` as the
        // per-row fill cursor.
        self.entries.clear();
        self.entries.resize(total, 0);
        self.pred.clear();
        self.pred.resize(total, 0);
        self.tail.clear();
        self.tail.extend_from_slice(&self.off[..n]);
        for (p, pos_p, q) in survivors.iter().flat_map(|b| survivor_records(b)) {
            let pos_q = inst.rank_of(q, p);
            debug_assert!(pos_q < inst.row_len(q), "a live pair is ranked");
            for (row, partner, pos) in [(p, q, pos_p), (q, p, pos_q)] {
                let at = self.tail[row as usize] as usize;
                self.entries[at] = partner;
                self.pred[at] = pos;
                self.tail[row as usize] += 1;
            }
        }
        // Order every row by position (the positions in a row are
        // distinct), then thread the row links.
        self.succ.clear();
        self.head.clear();
        self.tail.clear();
        self.len.clear();
        for p in 0..n {
            let (lo, hi) = (self.off[p], self.off[p + 1]);
            let row = lo as usize..hi as usize;
            if hi - lo >= 2 {
                // `targets` is free until phase 2: borrow it for the
                // row's (position, partner) keys.
                self.targets.clear();
                self.targets.extend(
                    self.pred[row.clone()]
                        .iter()
                        .copied()
                        .zip(self.entries[row.clone()].iter().copied()),
                );
                self.targets.sort_unstable();
                for (slot, &(_, q)) in self.entries[row].iter_mut().zip(&self.targets) {
                    *slot = q;
                }
            }
            for i in lo..hi {
                self.pred[i as usize] = if i == lo { NONE } else { i - 1 };
            }
            self.succ
                .extend((lo..hi).map(|i| if i + 1 == hi { NONE } else { i + 1 }));
            self.head.push(if lo == hi { NONE } else { lo });
            self.tail.push(if lo == hi { NONE } else { hi - 1 });
            self.len.push(hi - lo);
        }
        self.alive.clear();
        self.alive.resize(total, true);
    }

    /// Most preferred surviving partner of `p` in the arena, or `None` if
    /// the reduced list is empty.
    #[inline]
    pub(crate) fn first(&self, p: u32) -> Option<u32> {
        let h = self.head[p as usize];
        (h != NONE).then(|| self.entries[h as usize])
    }

    /// Every participant's first surviving partner — the stable matching
    /// once phase 2 has left every reduced list a singleton.
    pub(crate) fn partners(&self) -> Vec<u32> {
        (0..self.head.len() as u32)
            .map(|p| self.first(p).expect("singleton lists are non-empty"))
            .collect()
    }

    /// Can `p` still seed a rotation: a second preference, and not a member
    /// of a frozen party (`frozen` is empty in strict runs).
    #[inline]
    pub(crate) fn can_seed(&self, p: u32) -> bool {
        self.len[p as usize] >= 2 && !self.frozen.get(p as usize).is_some_and(|&f| f)
    }

    /// Second surviving partner of `p` — a single `succ` hop off the head.
    #[inline]
    pub(crate) fn second(&self, p: u32) -> Option<u32> {
        let h = self.head[p as usize];
        if h == NONE {
            return None;
        }
        let s = self.succ[h as usize];
        (s != NONE).then(|| self.entries[s as usize])
    }

    /// Least preferred surviving partner of `p`.
    #[inline]
    pub(crate) fn last(&self, p: u32) -> Option<u32> {
        let t = self.tail[p as usize];
        (t != NONE).then(|| self.entries[t as usize])
    }

    /// Arena node holding `q` in `p`'s row (alive or deleted). Reduced
    /// rows are short, so the linear probe is O(reduced row); every
    /// phase-2 caller already touches that row.
    #[inline]
    pub(crate) fn node_of(&self, p: u32, q: u32) -> u32 {
        let lo = self.off[p as usize];
        let hi = self.off[p as usize + 1];
        for e in lo..hi {
            if self.entries[e as usize] == q {
                return e;
            }
        }
        debug_assert!(false, "{q} not in {p}'s materialized row");
        NONE
    }

    /// Unlink node `e` from `owner`'s row. Returns `true` iff this emptied
    /// `owner`'s reduced list — the O(1) delete-time no-stable-matching
    /// signal.
    #[inline]
    pub(crate) fn unlink(&mut self, owner: u32, e: u32) -> bool {
        debug_assert!(self.alive[e as usize], "unlink of a deleted node");
        self.alive[e as usize] = false;
        let (s, p) = (self.succ[e as usize], self.pred[e as usize]);
        if p == NONE {
            self.head[owner as usize] = s;
        } else {
            self.succ[p as usize] = s;
        }
        if s == NONE {
            self.tail[owner as usize] = p;
        } else {
            self.pred[s as usize] = p;
        }
        self.len[owner as usize] -= 1;
        self.len[owner as usize] == 0
    }

    /// Bidirectionally delete every surviving entry of `p`'s arena row
    /// strictly worse than `q` (which must be in the row, though a
    /// rotation elimination may already have deleted the pair). The first
    /// participant whose list empties is written to `culprit` (if still
    /// [`NONE`]); deletions run best-to-worst, matching the reference
    /// table's removal order, and a delete that empties both sides reports
    /// the removed partner before `p` itself.
    ///
    /// `p`'s own tail is severed in O(1) when the kept entry survives;
    /// otherwise the boundary is recovered by walking back over the doomed
    /// suffix, which is paid for by the deletions themselves. Either way
    /// the cost is O(deleted) unlinks.
    pub(crate) fn truncate_below(&mut self, p: u32, q: u32, culprit: &mut u32) {
        let keep = self.node_of(p, q);
        // Locate the first surviving node strictly worse than `keep` and
        // the surviving node preceding it (the new tail). Rows stay sorted
        // by rank, so when `keep` itself is gone the boundary is found by
        // walking back from the tail over nodes about to be deleted.
        let (boundary, first_doomed) = if self.alive[keep as usize] {
            (keep, self.succ[keep as usize])
        } else {
            let t = self.tail[p as usize];
            if t == NONE || t < keep {
                return; // nothing worse than q survives
            }
            let mut s = t;
            loop {
                let pr = self.pred[s as usize];
                if pr == NONE || pr < keep {
                    break (pr, s);
                }
                s = pr;
            }
        };
        if first_doomed == NONE {
            return;
        }
        // Sever p's tail in one step; the loop below only pays for the
        // partner-side unlinks of entries that actually existed.
        if boundary == NONE {
            self.head[p as usize] = NONE;
            self.tail[p as usize] = NONE;
        } else {
            self.succ[boundary as usize] = NONE;
            self.tail[p as usize] = boundary;
        }
        let mut cur = first_doomed;
        while cur != NONE {
            let z = self.entries[cur as usize];
            self.alive[cur as usize] = false;
            self.len[p as usize] -= 1;
            let zn = self.node_of(z, p);
            if self.unlink(z, zn) && *culprit == NONE {
                *culprit = z;
            }
            cur = self.succ[cur as usize];
        }
        // p itself empties only when its whole surviving list was worse
        // than q (possible once rotation eliminations delete (p, q)).
        if self.len[p as usize] == 0 && *culprit == NONE {
            *culprit = p;
        }
    }

    /// Current reduced list of `p` in preference order (test/debug only —
    /// allocates). Valid after phase 1 has materialized the phase-2 arena.
    pub fn reduced_list(&self, p: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut e = self.head[p as usize];
        while e != NONE {
            out.push(self.entries[e as usize]);
            e = self.succ[e as usize];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmatch_prefs::gen::paper::section3b_left;
    use kmatch_prefs::RoommatesInstance;
    use std::cell::Cell;

    fn fresh(inst: &RoommatesInstance) -> RoommatesWorkspace {
        let mut ws = RoommatesWorkspace::new();
        ws.reset(inst);
        // With untouched thresholds every pair is alive, so the arena
        // holds the full preference lists.
        ws.materialize(inst);
        ws
    }

    fn delete_pair(ws: &mut RoommatesWorkspace, p: u32, q: u32) {
        let pn = ws.node_of(p, q);
        let qn = ws.node_of(q, p);
        ws.unlink(p, pn);
        ws.unlink(q, qn);
    }

    #[test]
    fn linked_first_second_last_track_deletions() {
        let inst = section3b_left();
        let mut ws = fresh(&inst);
        // m: u' w w' u = [5, 2, 3, 4]
        assert_eq!(ws.first(0), Some(5));
        assert_eq!(ws.second(0), Some(2));
        assert_eq!(ws.last(0), Some(4));
        delete_pair(&mut ws, 0, 5);
        assert_eq!(ws.first(0), Some(2));
        assert_eq!(ws.second(0), Some(3));
        delete_pair(&mut ws, 0, 4);
        assert_eq!(ws.last(0), Some(3));
        assert_eq!(ws.len[0], 2);
        // Bidirectional: 5 (u') lost m from its list [0, 2, 3, 1].
        assert_eq!(ws.first(5), Some(2));
    }

    #[test]
    fn truncate_severs_tail_and_partners() {
        let inst = section3b_left();
        let mut ws = fresh(&inst);
        // m holds a proposal from w (=2): remove everyone worse than w on
        // m's list [5, 2, 3, 4] -> [5, 2].
        let mut culprit = NONE;
        ws.truncate_below(0, 2, &mut culprit);
        assert_eq!(ws.reduced_list(0), vec![5, 2]);
        assert_eq!(culprit, NONE);
        // Bidirectional: w' (=3) and u (=4) lost m.
        assert!(!ws.reduced_list(3).contains(&0));
        assert!(!ws.reduced_list(4).contains(&0));
        assert_eq!(ws.len[0], 2);
    }

    #[test]
    fn emptiness_signalled_at_delete_time() {
        let inst = section3b_left();
        let mut ws = fresh(&inst);
        let mut emptied = false;
        for q in [5, 2, 3, 4] {
            let pn = ws.node_of(0, q);
            let qn = ws.node_of(q, 0);
            emptied |= ws.unlink(0, pn);
            ws.unlink(q, qn);
        }
        assert!(emptied, "final unlink must report the empty list");
        assert_eq!(ws.len[0], 0);
        assert_eq!(ws.first(0), None);
        assert_eq!(ws.second(0), None);
        assert_eq!(ws.last(0), None);
    }

    #[test]
    fn thresholds_drive_the_materialized_arena() {
        let inst = section3b_left();
        let mut ws = RoommatesWorkspace::new();
        ws.reset(&inst);
        // m (=0) holds a proposal from w (=2), rank 1 on m's list
        // [5, 2, 3, 4]: the implicit truncation kills (0,3) and (0,4)
        // on both sides.
        ws.thresh[0] = inst.rank_of(0, 2);
        ws.materialize(&inst);
        assert_eq!(ws.reduced_list(0), vec![5, 2]);
        assert!(!ws.reduced_list(3).contains(&0));
        assert!(!ws.reduced_list(4).contains(&0));
        // Untouched rows keep their full lists.
        assert_eq!(ws.reduced_list(5), inst.list(5).to_vec());
    }

    #[test]
    fn scan_cursor_skips_only_dead_prefixes() {
        let inst = section3b_left();
        let mut ws = RoommatesWorkspace::new();
        ws.reset(&inst);
        // u' (=5, list [0, 2, 3, 1]) truncates below w (=2, rank 1):
        // every pair (z, 5) with rank_5(z) > 1 dies, including (1, 5) —
        // m''s head.
        ws.thresh[5] = 1;
        assert_eq!(ws.p1_first(&inst, 1), Some(2), "m''s head pair died");
        assert_eq!(ws.scan[1], 1, "cursor advanced past the dead prefix");
        // The cursor result matches the materialized arena head.
        ws.materialize(&inst);
        assert_eq!(ws.first(1), Some(2));
    }

    #[test]
    fn reset_restores_a_reused_workspace() {
        let inst = section3b_left();
        let mut ws = RoommatesWorkspace::with_capacity(6, 24);
        ws.reset(&inst);
        ws.materialize(&inst);
        let mut culprit = NONE;
        ws.truncate_below(0, 2, &mut culprit);
        ws.reset(&inst);
        ws.materialize(&inst);
        assert_eq!(ws.reduced_list(0), vec![5, 2, 3, 4]);
        assert!(ws.alive.iter().all(|&a| a));
        assert_eq!(ws.free.len(), 6);
    }

    /// Wraps an oracle and counts the partner-side rank probes it answers.
    struct CountingRanks<'a, I> {
        inner: &'a I,
        ranks: Cell<u64>,
    }

    impl<I: RoommatesOracle> CountingRanks<'_, I> {
        fn add(&self, k: usize) {
            self.ranks.set(self.ranks.get() + k as u64);
        }
    }

    impl<I: RoommatesOracle> RoommatesOracle for CountingRanks<'_, I> {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn row_len(&self, p: u32) -> u32 {
            self.inner.row_len(p)
        }
        fn candidate(&self, p: u32, pos: u32) -> u32 {
            self.inner.candidate(p, pos)
        }
        fn rank_of(&self, p: u32, q: u32) -> u32 {
            self.add(1);
            self.inner.rank_of(p, q)
        }
        fn candidates_into(&self, p: u32, lo: u32, out: &mut [u32]) {
            self.inner.candidates_into(p, lo, out)
        }
        fn ranks_toward_into(&self, qs: &[u32], p: u32, out: &mut [u32]) {
            self.add(qs.len());
            self.inner.ranks_toward_into(qs, p, out)
        }
        fn rank_lt(&self, q: u32, p: u32, limit: u32) -> bool {
            self.add(1);
            self.inner.rank_lt(q, p, limit)
        }
        fn ranks_lt_into(&self, qs: &[u32], p: u32, limits: &[u32], out: &mut [bool]) {
            self.add(qs.len());
            self.inner.ranks_lt_into(qs, p, limits, out)
        }
    }

    /// The arena vectors `entries`, `off`, `head`, `tail` and `len`.
    type Arena = [Vec<u32>; 5];

    /// The arena as the scalar predicate walk defines it — one
    /// `rank_lt` per window candidate — plus the number of window
    /// candidates `q > p` and of surviving pairs among them, and the
    /// `[dead, alive]` tally of the candidates `q < p`.
    fn scalar_arena<I: RoommatesOracle>(
        inst: &I,
        ws: &RoommatesWorkspace,
    ) -> (Arena, [u64; 2], [u64; 2]) {
        let [mut entries, mut off, mut head, mut tail, mut len] = Arena::default();
        let (mut higher, mut lower) = ([0u64; 2], [0u64; 2]);
        off.push(0);
        for p in 0..inst.n() as u32 {
            let base = entries.len() as u32;
            let end = inst.row_len(p).min(ws.thresh[p as usize].saturating_add(1));
            for pos in ws.scan[p as usize]..end {
                let q = inst.candidate(p, pos);
                let alive = inst.rank_lt(q, p, ws.thresh[q as usize].saturating_add(1));
                if q > p {
                    higher[0] += 1;
                    higher[1] += alive as u64;
                } else {
                    lower[alive as usize] += 1;
                }
                if alive {
                    entries.push(q);
                }
            }
            let e = entries.len() as u32;
            head.push(if base == e { NONE } else { base });
            tail.push(if base == e { NONE } else { e - 1 });
            len.push(e - base);
            off.push(e);
        }
        ([entries, off, head, tail, len], higher, lower)
    }

    /// Re-pack `ws`'s arena from its phase-1 state (phase 2 never touches
    /// `thresh` or `scan`) and compare it with the scalar walk. Returns
    /// the `[dead, alive]` tally of the lower-id candidates.
    fn check_materialize<I: RoommatesOracle>(
        inst: &I,
        ws: &mut RoommatesWorkspace,
        what: &str,
    ) -> [u64; 2] {
        let (expected, [higher, upper], lower) = scalar_arena(inst, ws);
        let counting = CountingRanks {
            inner: inst,
            ranks: Cell::new(0),
        };
        ws.materialize(&counting);
        let got = [&ws.entries, &ws.off, &ws.head, &ws.tail, &ws.len];
        for (name, (g, e)) in ["entries", "off", "head", "tail", "len"]
            .iter()
            .zip(got.into_iter().zip(&expected))
        {
            assert_eq!(g, e, "{what}: arena `{name}` differs from the scalar walk");
        }
        assert_eq!(
            counting.ranks.get(),
            higher + upper,
            "{what}: one liveness probe per window candidate q > p, \
             one position probe per surviving pair"
        );
        assert!(
            ws.pos.iter().all(|&x| x == NONE),
            "{what}: phase 2 needs the `pos` scratch all-NONE"
        );
        lower
    }

    /// Run both engine paths over `inst` and check the arena each leaves.
    fn check_both_paths<I: RoommatesOracle>(
        inst: &I,
        ws: &mut RoommatesWorkspace,
        what: &str,
        lower: &mut [u64; 2],
    ) {
        ws.solve(inst);
        let engine = check_materialize(inst, ws, &format!("{what}, engine"));
        crate::partition::tolerant_solve_budgeted(inst, ws, u32::MAX);
        let tolerant = check_materialize(inst, ws, &format!("{what}, tolerant"));
        for (sum, (a, b)) in lower.iter_mut().zip(engine.into_iter().zip(tolerant)) {
            *sum += a + b;
        }
    }

    #[test]
    fn split_arena_build_matches_the_scalar_walk() {
        // At n = 5000 and the escalation's first cut the walk is large
        // enough that budgets 2 and 7 split it across threads.
        use kmatch_prefs::{CachedRoommatesOracle, TruncatedRoommates};
        let oracle = CachedRoommatesOracle::new(5000, 2);
        let inst = TruncatedRoommates::new(&oracle, 1132);
        let mut ws = RoommatesWorkspace::new();
        crate::partition::tolerant_solve_budgeted(&inst, &mut ws, u32::MAX);
        let (expected, _, _) = scalar_arena(&inst, &ws);
        let work: u64 = (0..5000u32)
            .map(|p| {
                let end = inst.row_len(p).min(ws.thresh[p as usize].saturating_add(1));
                u64::from(end - ws.scan[p as usize])
            })
            .sum();
        assert_eq!(walk_threads(2, work), 2, "work {work} must split");
        assert!(walk_threads(7, work) > 2, "work {work} must split further");
        let mut arenas = Vec::new();
        for threads in [1usize, 2, 7] {
            ws.set_threads(threads);
            ws.materialize(&inst);
            let got = [&ws.entries, &ws.off, &ws.head, &ws.tail, &ws.len];
            for (g, e) in got.into_iter().zip(&expected) {
                assert_eq!(g, e, "budget {threads}: arena differs from the scalar walk");
            }
            arenas.push((ws.succ.clone(), ws.pred.clone(), ws.alive.clone()));
        }
        assert!(arenas.windows(2).all(|w| w[0] == w[1]), "row links differ");
    }

    #[test]
    fn split_rows_cuts_at_most_walk_tasks_ranges() {
        let mut bounds = Vec::new();
        for (n, per_row) in [
            (0usize, 0u64),
            (1, 0),
            (7, 0),
            (10, 1),
            (3000, 700),
            (50_000, 9),
        ] {
            let total = n as u64 * per_row;
            split_rows(n, total, |_| per_row, &mut bounds);
            assert_eq!(bounds[0], 0);
            assert_eq!(
                *bounds.last().unwrap() as usize,
                n,
                "n = {n}: every row is covered"
            );
            assert!(
                bounds.windows(2).all(|w| w[0] < w[1]),
                "n = {n}: empty task"
            );
            assert!(
                bounds.len() - 1 <= WALK_TASKS as usize,
                "n = {n}: too many tasks"
            );
            if total >= 2 * MIN_TASK_WORK {
                assert!(bounds.len() > 2, "n = {n}: a large walk must split");
            }
        }
    }

    #[test]
    fn materialize_matches_the_scalar_predicate_walk() {
        use kmatch_prefs::gen::adversarial::theorem1_roommates;
        use kmatch_prefs::gen::structured::identical_bipartite;
        use kmatch_prefs::gen::uniform::uniform_roommates;
        use kmatch_prefs::{CachedRoommatesOracle, TruncatedRoommates};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let mut ws = RoommatesWorkspace::new();
        let mut lower = [0u64; 2];
        let mut rng = ChaCha8Rng::seed_from_u64(0xA7E4A);
        for n in [2usize, 5, 8, 17, 32, 63, 120] {
            for _ in 0..4 {
                let inst = uniform_roommates(n, &mut rng);
                check_both_paths(&inst, &mut ws, &format!("uniform n = {n}"), &mut lower);
            }
        }
        for m in 1..8 {
            let inst = theorem1_roommates(3, m);
            check_both_paths(&inst, &mut ws, &format!("theorem 1, m = {m}"), &mut lower);
        }
        for n in [2usize, 7, 24, 47] {
            let inst = RoommatesInstance::from_bipartite(&identical_bipartite(n));
            check_both_paths(&inst, &mut ws, &format!("master list n = {n}"), &mut lower);
        }
        for (n, seed) in [(200usize, 3u64), (500, 11), (1000, 29)] {
            let oracle = CachedRoommatesOracle::new(n, seed);
            for cut in [4u32, 16, 64, 256] {
                let inst = TruncatedRoommates::new(&oracle, cut);
                check_both_paths(&inst, &mut ws, &format!("n = {n}, cut {cut}"), &mut lower);
            }
        }
        assert!(
            lower[0] > 0 && lower[1] > 0,
            "the lower-id candidates must include dead and live pairs: {lower:?}"
        );
    }
}
