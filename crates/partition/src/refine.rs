//! Fiduccia–Mattheyses boundary refinement.
//!
//! App. A.2: *"In the uncoarsening phase, the partitions are iteratively
//! projected back towards the original graph, with a local refinement on
//! each iteration. Local refinement can significantly improve the partition
//! quality."*
//!
//! This is the classic FM scheme: each pass repeatedly moves the
//! highest-gain unlocked boundary vertex to the other side (subject to a
//! balance bound), locks it, updates neighbor gains, and finally rewinds to
//! the best prefix of the move sequence. Passes repeat until one yields no
//! improvement.
//!
//! Gains live in two indexed max-heaps, one per side, keyed by
//! `(gain, Reverse(v))`. A vertex holds at most one slot, updated in place
//! when a neighbour's move changes its gain. Keys are unique per vertex, so
//! the top of each heap is fully determined by the set of eligible vertices
//! and their current gains — the same vertex a lazy heap of stale entries
//! would surface after discarding outdated ones.

use crate::wgraph::WGraph;

/// Balance bound: neither side may exceed this fraction of the total vertex
/// weight (0.55 allows the ~10 % slack heavy-tailed degree distributions
/// need while keeping partitions "with similar number of edges").
pub const DEFAULT_MAX_SIDE_FRACTION: f64 = 0.55;

/// Refine `side` in place; returns the final cut weight.
pub fn fm_refine(g: &WGraph, side: &mut [bool], max_passes: u32) -> u64 {
    fm_refine_bounded(g, side, max_passes, DEFAULT_MAX_SIDE_FRACTION)
}

/// [`fm_refine`] with an explicit balance bound.
pub fn fm_refine_bounded(
    g: &WGraph,
    side: &mut [bool],
    max_passes: u32,
    max_side_fraction: f64,
) -> u64 {
    FmWorkspace::default().refine(g, side, max_passes, max_side_fraction)
}

/// Work done by FM refinement, summed over every pass run on a workspace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FmStats {
    /// Passes run.
    pub passes: u64,
    /// Vertex moves made, rewound ones included.
    pub moves: u64,
    /// Moves kept: the best prefix of each pass.
    pub moves_kept: u64,
}

/// Marks a vertex without a heap slot.
const ABSENT: u32 = u32::MAX;

/// Indexed binary max-heap of vertices keyed by `(gain, Reverse(v))`.
#[derive(Debug, Default)]
struct GainHeap {
    /// Heap-ordered `(gain, vertex)` slots.
    slots: Vec<(i64, u32)>,
    /// `pos[v]`: index of `v`'s slot, or [`ABSENT`].
    pos: Vec<u32>,
}

impl GainHeap {
    /// Empty the heap and make room for vertices `0..n`.
    fn reset(&mut self, n: usize) {
        for &(_, v) in &self.slots {
            self.pos[v as usize] = ABSENT;
        }
        self.slots.clear();
        if self.pos.len() < n {
            self.pos.resize(n, ABSENT);
        }
    }

    /// Does key `a` rank above key `b`: higher gain, then lower id.
    #[inline]
    fn above(a: (i64, u32), b: (i64, u32)) -> bool {
        a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
    }

    /// The highest-ranked `(gain, vertex)`.
    fn top(&self) -> Option<(i64, usize)> {
        self.slots.first().map(|&(gain, v)| (gain, v as usize))
    }

    /// Remove the top slot.
    fn pop(&mut self) {
        let Some(last) = self.slots.pop() else { return };
        self.pos[last.1 as usize] = ABSENT;
        if let Some(first) = self.slots.first_mut() {
            self.pos[first.1 as usize] = ABSENT;
            *first = last;
            self.sift_down(0);
        }
    }

    /// Insert `v` with `gain`, or move its slot to the new key.
    fn set(&mut self, v: usize, gain: i64) {
        match self.pos[v] {
            ABSENT => {
                let i = self.slots.len();
                self.slots.push((gain, v as u32));
                self.sift_up(i);
            }
            i => {
                let i = i as usize;
                let old = self.slots[i].0;
                self.slots[i].0 = gain;
                if gain > old {
                    self.sift_up(i);
                } else {
                    self.sift_down(i);
                }
            }
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::above(item, self.slots[parent]) {
                break;
            }
            self.place(i, self.slots[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.slots[i];
        let len = self.slots.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && Self::above(self.slots[right], self.slots[left]) {
                right
            } else {
                left
            };
            if !Self::above(self.slots[child], item) {
                break;
            }
            self.place(i, self.slots[child]);
            i = child;
        }
        self.place(i, item);
    }

    #[inline]
    fn place(&mut self, i: usize, item: (i64, u32)) {
        self.slots[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }
}

/// Buffers of FM refinement, reused across passes and across the levels of
/// one multilevel bisection, plus the work it did.
#[derive(Debug, Default)]
pub(crate) struct FmWorkspace {
    gain: Vec<i64>,
    locked: Vec<bool>,
    /// `heaps[1]`: movable vertices on the `true` side; `heaps[0]`: `false`.
    heaps: [GainHeap; 2],
    moves: Vec<u32>,
    pub stats: FmStats,
}

impl FmWorkspace {
    /// Refine `side` in place with at most `max_passes` passes; returns the
    /// final cut weight.
    pub fn refine(
        &mut self,
        g: &WGraph,
        side: &mut [bool],
        max_passes: u32,
        max_side_fraction: f64,
    ) -> u64 {
        assert!(
            (0.5..=1.0).contains(&max_side_fraction),
            "max_side_fraction must be in [0.5, 1], got {max_side_fraction}"
        );
        let total = g.total_vwgt();
        let max_side = (total as f64 * max_side_fraction) as u64;
        let mut cut = g.cut_weight(side);
        for _ in 0..max_passes {
            let improved = self.pass(g, side, &mut cut, max_side);
            if !improved {
                break;
            }
        }
        cut
    }

    /// One FM pass. Returns true when the cut improved.
    ///
    /// Classic two-heap scheme: one gain heap per side, so a balance-blocked
    /// direction never starves the other — the pass can walk through
    /// cut-neutral move sequences and rewind to the best prefix.
    fn pass(&mut self, g: &WGraph, side: &mut [bool], cut: &mut u64, max_side: u64) -> bool {
        let n = g.num_vertices();
        let mut weight_true = g.side_weight(side);
        let total = g.total_vwgt();
        let vwgt = g.vwgt();
        let FmWorkspace { gain, locked, heaps, moves, stats } = self;

        // gain[v]: cut reduction if v switches sides = external - internal
        // weight. Boundary vertices start in their side's heap; the others
        // join when a neighbour's move changes their gain.
        gain.clear();
        gain.resize(n, 0);
        locked.clear();
        locked.resize(n, false);
        moves.clear();
        for h in heaps.iter_mut() {
            h.reset(n);
        }
        for v in 0..n {
            let (mut ext, mut int) = (0i64, 0i64);
            let (nbrs, wgts) = g.row(v);
            for (&u, &w) in nbrs.iter().zip(wgts) {
                if side[u as usize] != side[v] {
                    ext += w as i64;
                } else {
                    int += w as i64;
                }
            }
            gain[v] = ext - int;
            if ext > 0 {
                heaps[side[v] as usize].set(v, gain[v]);
            }
        }

        // Move sequence with best-prefix tracking. A prefix is preferred first
        // by balance feasibility, then by cut — so a pass that starts from an
        // imbalanced projection repairs balance even at a cut cost.
        let feasible_now = |wt: u64| wt.max(total - wt) <= max_side;
        let start_cut = *cut;
        let start_feasible = feasible_now(weight_true);
        let mut best_cut = *cut;
        let mut best_feasible = start_feasible;
        let mut best_len = 0usize;

        loop {
            // Balance per direction: a move is allowed when it lands within
            // the bound OR strictly reduces an existing violation (repair
            // mode). Only each heap's top is a candidate.
            let feasible = |from_true: bool, v: usize| -> bool {
                let w = vwgt[v];
                let new_true = if from_true { weight_true - w } else { weight_true + w };
                let new_false = total - new_true;
                let new_max = new_true.max(new_false);
                new_max <= max_side || new_max < weight_true.max(total - weight_true)
            };
            let ok_true = heaps[1].top().filter(|&(_, v)| feasible(true, v));
            let ok_false = heaps[0].top().filter(|&(_, v)| feasible(false, v));

            // Pick the higher gain; tie-break toward draining the heavier side.
            let pick = match (ok_true, ok_false) {
                (None, None) => break,
                (Some(t), None) => (true, t),
                (None, Some(f)) => (false, f),
                (Some(t), Some(f)) => {
                    let heavier_true = weight_true * 2 >= total;
                    if t.0 > f.0 || (t.0 == f.0 && heavier_true) {
                        (true, t)
                    } else {
                        (false, f)
                    }
                }
            };
            let (from_true, (gval, v)) = pick;
            heaps[from_true as usize].pop();
            debug_assert_eq!(gain[v], gval);

            // Move v.
            let w = vwgt[v];
            weight_true = if from_true { weight_true - w } else { weight_true + w };
            side[v] = !side[v];
            *cut = (*cut as i64 - gain[v]) as u64;
            locked[v] = true;
            moves.push(v as u32);
            let now_feasible = feasible_now(weight_true);
            let better = match (now_feasible, best_feasible) {
                (true, false) => true,
                (false, true) => false,
                _ => *cut < best_cut,
            };
            if better {
                best_cut = *cut;
                best_feasible = now_feasible;
                best_len = moves.len();
            }
            // Update neighbor gains: u now on v's side loses 2w of gain; u on
            // the other side gains 2w.
            let (nbrs, wgts) = g.row(v);
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                if side[u] == side[v] {
                    gain[u] -= 2 * w as i64;
                } else {
                    gain[u] += 2 * w as i64;
                }
                heaps[side[u] as usize].set(u, gain[u]);
            }
        }

        // Rewind to the best prefix.
        for &v in moves.iter().skip(best_len).rev() {
            side[v as usize] = !side[v as usize];
        }
        stats.passes += 1;
        stats.moves += moves.len() as u64;
        stats.moves_kept += best_len as u64;
        *cut = best_cut;
        best_cut < start_cut || (best_feasible && !start_feasible)
    }
}

/// The lazy-heap FM pass the indexed heaps replaced, kept as a
/// differential oracle: every gain change pushes a fresh entry, and stale,
/// locked or moved entries are discarded when they surface.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::wgraph::WGraph;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub fn fm_pass(g: &WGraph, side: &mut [bool], cut: &mut u64, max_side: u64) -> bool {
        let n = g.num_vertices();
        let mut weight_true = g.side_weight(side);
        let total = g.total_vwgt();

        let mut gain = vec![0i64; n];
        let mut locked = vec![false; n];
        let mut heaps: [BinaryHeap<(i64, Reverse<usize>)>; 2] =
            [BinaryHeap::new(), BinaryHeap::new()];
        for v in 0..n {
            let (mut ext, mut int) = (0i64, 0i64);
            for (u, w) in g.adj(v) {
                if side[u as usize] != side[v] {
                    ext += w as i64;
                } else {
                    int += w as i64;
                }
            }
            gain[v] = ext - int;
            if ext > 0 {
                heaps[side[v] as usize].push((gain[v], Reverse(v)));
            }
        }

        let feasible_now = |wt: u64| wt.max(total - wt) <= max_side;
        let start_cut = *cut;
        let start_feasible = feasible_now(weight_true);
        let mut best_cut = *cut;
        let mut best_feasible = start_feasible;
        let mut best_len = 0usize;
        let mut moves: Vec<usize> = Vec::new();

        loop {
            let peek = |from_true: bool,
                        heaps: &mut [BinaryHeap<(i64, Reverse<usize>)>; 2],
                        gain: &[i64],
                        locked: &[bool],
                        side: &[bool]|
             -> Option<(i64, usize)> {
                let h = &mut heaps[from_true as usize];
                while let Some(&(gval, Reverse(v))) = h.peek() {
                    if locked[v] || gain[v] != gval || side[v] != from_true {
                        h.pop();
                        continue;
                    }
                    return Some((gval, v));
                }
                None
            };
            let cand_true = peek(true, &mut heaps, &gain, &locked, side);
            let cand_false = peek(false, &mut heaps, &gain, &locked, side);

            let feasible = |from_true: bool, v: usize| -> bool {
                let w = g.vwgt()[v];
                let new_true = if from_true { weight_true - w } else { weight_true + w };
                let new_false = total - new_true;
                let new_max = new_true.max(new_false);
                new_max <= max_side || new_max < weight_true.max(total - weight_true)
            };
            let ok_true = cand_true.filter(|&(_, v)| feasible(true, v));
            let ok_false = cand_false.filter(|&(_, v)| feasible(false, v));

            let pick = match (ok_true, ok_false) {
                (None, None) => break,
                (Some(t), None) => (true, t),
                (None, Some(f)) => (false, f),
                (Some(t), Some(f)) => {
                    let heavier_true = weight_true * 2 >= total;
                    if t.0 > f.0 || (t.0 == f.0 && heavier_true) {
                        (true, t)
                    } else {
                        (false, f)
                    }
                }
            };
            let (from_true, (_, v)) = pick;
            heaps[from_true as usize].pop();

            let w = g.vwgt()[v];
            weight_true = if from_true { weight_true - w } else { weight_true + w };
            side[v] = !side[v];
            *cut = (*cut as i64 - gain[v]) as u64;
            locked[v] = true;
            moves.push(v);
            let now_feasible = feasible_now(weight_true);
            let better = match (now_feasible, best_feasible) {
                (true, false) => true,
                (false, true) => false,
                _ => *cut < best_cut,
            };
            if better {
                best_cut = *cut;
                best_feasible = now_feasible;
                best_len = moves.len();
            }
            for (u, w) in g.adj(v) {
                let u = u as usize;
                if locked[u] {
                    continue;
                }
                if side[u] == side[v] {
                    gain[u] -= 2 * w as i64;
                } else {
                    gain[u] += 2 * w as i64;
                }
                heaps[side[u] as usize].push((gain[u], Reverse(u)));
            }
        }

        for &v in moves.iter().skip(best_len).rev() {
            side[v] = !side[v];
        }
        *cut = best_cut;
        best_cut < start_cut || (best_feasible && !start_feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wgraph::oracle::arb_multigraph;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use surfer_graph::builder::from_edges;
    use surfer_graph::generators::deterministic::grid;

    #[test]
    fn repairs_a_bad_grid_split() {
        // 4x4 grid split into alternating row stripes (cut = all 12 vertical
        // undirected edges x weight 2 = 24); FM should approach the optimal
        // straight-line cut (4 undirected edges x weight 2 = 8).
        let g = WGraph::from_csr(&grid(4, 4));
        let mut side: Vec<bool> = (0..16).map(|v| (v / 4) % 2 == 0).collect();
        let before = g.cut_weight(&side);
        assert_eq!(before, 24);
        // A roomy balance bound lets single-level FM walk out of the stripe
        // pattern (the multilevel pipeline normally provides this freedom by
        // moving coarse clusters instead).
        let after = fm_refine_bounded(&g, &mut side, 8, 0.75);
        assert!(after < before, "no improvement: {before} -> {after}");
        assert!(after <= 16, "cut still bad: {after}");
        assert_eq!(after, g.cut_weight(&side), "returned cut out of sync");
    }

    #[test]
    fn tight_balance_never_worsens() {
        let g = WGraph::from_csr(&grid(4, 4));
        let mut side: Vec<bool> = (0..16).map(|v| (v / 4) % 2 == 0).collect();
        let before = g.cut_weight(&side);
        let after = fm_refine(&g, &mut side, 8);
        assert!(after <= before, "worsened: {before} -> {after}");
        assert_eq!(after, g.cut_weight(&side));
    }

    #[test]
    fn respects_balance_bound() {
        let g = WGraph::from_csr(&grid(4, 4));
        let mut side: Vec<bool> = (0..16).map(|v| v < 8).collect();
        fm_refine_bounded(&g, &mut side, 8, 0.55);
        let w = g.side_weight(&side) as f64;
        let total = g.total_vwgt() as f64;
        assert!(w / total <= 0.56 && w / total >= 0.44, "imbalanced: {}", w / total);
    }

    #[test]
    fn optimal_split_is_stable() {
        // Two triangles and a bridge, already optimally split.
        let g = WGraph::from_csr(&from_edges(
            6,
            [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        ));
        let mut side = vec![false, false, false, true, true, true];
        let cut = fm_refine(&g, &mut side, 4);
        assert_eq!(cut, 1);
        assert_eq!(side, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn empty_boundary_is_noop() {
        // Disconnected halves: no boundary vertices, nothing to do.
        let g = WGraph::from_csr(&from_edges(4, [(0, 1), (2, 3)]));
        let mut side = vec![false, false, true, true];
        assert_eq!(fm_refine(&g, &mut side, 4), 0);
    }

    #[test]
    #[should_panic(expected = "max_side_fraction")]
    fn rejects_bad_fraction() {
        let g = WGraph::from_csr(&grid(2, 2));
        let mut side = vec![false; 4];
        fm_refine_bounded(&g, &mut side, 1, 0.3);
    }

    #[test]
    fn gain_heap_orders_by_gain_then_lowest_id() {
        let mut h = GainHeap::default();
        h.reset(6);
        for (v, gain) in [(0, 3), (1, 5), (2, 5), (3, -1), (4, 0)] {
            h.set(v, gain);
        }
        h.set(5, 4); // insert
        h.set(3, 9); // raise
        h.set(1, 4); // lower; now ties with 5 on gain and wins on id
        let mut order = Vec::new();
        while let Some((gain, v)) = h.top() {
            order.push((gain, v));
            h.pop();
        }
        assert_eq!(order, vec![(9, 3), (5, 2), (4, 1), (4, 5), (3, 0), (0, 4)]);
        assert!(h.pos.iter().all(|&p| p == ABSENT), "popped vertices keep no slot");
    }

    #[test]
    fn fm_matches_lazy_heap_oracle_on_a_social_graph() {
        // Thousands of vertices, so the heaps grow deep and most gains
        // change many times within a pass.
        use surfer_graph::generators::social::{msn_like, MsnScale};
        let g = WGraph::from_csr(&msn_like(MsnScale::Tiny, 3));
        let mut ws = FmWorkspace::default();
        for seed in 0..3u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut side: Vec<bool> = (0..g.num_vertices()).map(|_| rng.gen()).collect();
            let mut expected = side.clone();
            let max_side = (g.total_vwgt() as f64 * 0.52) as u64;
            let (mut cut, mut expected_cut) = (g.cut_weight(&side), g.cut_weight(&side));
            for _ in 0..4 {
                let improved = ws.pass(&g, &mut side, &mut cut, max_side);
                let expected_improved =
                    oracle::fm_pass(&g, &mut expected, &mut expected_cut, max_side);
                assert_eq!((improved, cut), (expected_improved, expected_cut));
                assert_eq!(side, expected);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Pass by pass, the indexed heaps pick exactly the moves the lazy
        /// heaps did: identical sides, cuts and return values, also with a
        /// workspace reused on a second (coarser) graph.
        #[test]
        fn fm_pass_matches_lazy_heap_oracle(
            g in arb_multigraph(),
            seed in 0u64..1000,
            frac_milli in 0u64..1001,
            passes in 1u32..6,
        ) {
            let fine = WGraph::from_csr(&g);
            let coarse = fine.contract(&fine.heavy_edge_matching(seed)).0;
            let fraction = 0.5 + frac_milli as f64 / 2000.0;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut ws = FmWorkspace::default();
            for w in [&fine, &coarse] {
                let max_side = (w.total_vwgt() as f64 * fraction) as u64;
                let mut side: Vec<bool> = (0..w.num_vertices()).map(|_| rng.gen()).collect();
                let mut expected = side.clone();
                let mut cut = w.cut_weight(&side);
                let mut expected_cut = cut;
                for _ in 0..passes {
                    let improved = ws.pass(w, &mut side, &mut cut, max_side);
                    let expected_improved =
                        oracle::fm_pass(w, &mut expected, &mut expected_cut, max_side);
                    prop_assert_eq!(improved, expected_improved);
                    prop_assert_eq!(&side, &expected);
                    prop_assert_eq!(cut, expected_cut);
                    prop_assert_eq!(cut, w.cut_weight(&side));
                }
            }
        }
    }
}
