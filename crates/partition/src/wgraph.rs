//! Weighted working graph for the multilevel bisection pipeline.
//!
//! Multilevel partitioning (App. A.2, Karypis & Kumar) operates on an
//! *undirected weighted* view of the data graph: directed edges are
//! symmetrized, parallel edges merge into one edge whose weight is the
//! number of originals, and each coarse vertex carries the total weight of
//! the vertices it absorbed. Vertex weight models storage size (`1 + degree`,
//! a proxy for the `<ID, d, neighbors>` record), so balancing vertex weight
//! balances partition byte sizes — the paper's "similar number of edges"
//! constraint.
//!
//! The graph is stored METIS-style as three flat arrays: row `v` is
//! `adjncy[xadj[v]..xadj[v + 1]]` with weights in `adjwgt` at the same
//! indices. Rows list neighbours in ascending id order, carry no self-loops
//! and are symmetric (`u` in row `v` with weight `w` iff `v` in row `u` with
//! weight `w`); every constructor below preserves that.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use surfer_graph::{CsrGraph, VertexId};

/// Undirected weighted graph with weighted vertices, in CSR form.
#[derive(Debug, Clone)]
pub struct WGraph {
    /// Vertex weights.
    vwgt: Vec<u64>,
    /// Row offsets: row `v` spans `xadj[v]..xadj[v + 1]`.
    xadj: Vec<usize>,
    /// Neighbour ids, ascending within each row.
    adjncy: Vec<u32>,
    /// Edge weights, parallel to `adjncy`.
    adjwgt: Vec<u64>,
}

impl WGraph {
    /// Build the undirected weighted view of a directed graph.
    ///
    /// Every non-loop directed edge is written into both endpoints' rows;
    /// each row is then sorted and runs of one neighbour merge into a single
    /// entry weighted by the run length.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices() as usize;
        let mut xadj = vec![0usize; n + 1];
        for s in 0..n {
            for &d in g.neighbors(VertexId(s as u32)) {
                if d.index() != s {
                    xadj[s + 1] += 1;
                    xadj[d.index() + 1] += 1;
                }
            }
        }
        for v in 0..n {
            xadj[v + 1] += xadj[v];
        }
        let mut fill = xadj[..n].to_vec();
        let mut adjncy = vec![0u32; xadj[n]];
        for s in 0..n {
            for &d in g.neighbors(VertexId(s as u32)) {
                let d = d.index();
                if d == s {
                    continue; // self-loops never cross a cut
                }
                adjncy[fill[s]] = d as u32;
                fill[s] += 1;
                adjncy[fill[d]] = s as u32;
                fill[d] += 1;
            }
        }
        let mut adjwgt = vec![0u64; adjncy.len()];
        let mut out = 0usize;
        for v in 0..n {
            let (start, end) = (xadj[v], xadj[v + 1]);
            adjncy[start..end].sort_unstable();
            xadj[v] = out;
            for i in start..end {
                if out > xadj[v] && adjncy[out - 1] == adjncy[i] {
                    adjwgt[out - 1] += 1;
                } else {
                    adjncy[out] = adjncy[i];
                    adjwgt[out] = 1;
                    out += 1;
                }
            }
        }
        xadj[n] = out;
        adjncy.truncate(out);
        adjwgt.truncate(out);
        let vwgt = (0..n).map(|v| 1 + u64::from(g.out_degree(VertexId(v as u32)))).collect();
        WGraph { vwgt, xadj, adjncy, adjwgt }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Vertex weights.
    pub fn vwgt(&self) -> &[u64] {
        &self.vwgt
    }

    /// Row `v`: neighbour ids (ascending) and the parallel edge weights.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> (&[u32], &[u64]) {
        let (s, e) = (self.xadj[v], self.xadj[v + 1]);
        (&self.adjncy[s..e], &self.adjwgt[s..e])
    }

    /// `(neighbour, edge weight)` pairs of `v`, in ascending neighbour order.
    pub fn adj(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (ids, wgts) = self.row(v);
        ids.iter().copied().zip(wgts.iter().copied())
    }

    /// Total vertex weight.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Sum of edge weights incident to `v`.
    pub fn degree_weight(&self, v: usize) -> u64 {
        self.row(v).1.iter().sum()
    }

    /// Total edge weight (each undirected edge counted once).
    pub fn total_edge_weight(&self) -> u64 {
        self.adjwgt.iter().sum::<u64>() / 2
    }

    /// Heavy-edge matching in a seeded random vertex order: each unmatched
    /// vertex pairs with its heaviest unmatched neighbor. Returns
    /// `match_of[v]` (equal to `v` for unmatched vertices).
    pub fn heavy_edge_matching(&self, seed: u64) -> Vec<u32> {
        let n = self.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut match_of: Vec<u32> = (0..n as u32).collect();
        let mut matched = vec![false; n];
        for &v in &order {
            if matched[v as usize] {
                continue;
            }
            let heaviest = self
                .adj(v as usize)
                .filter(|&(u, _)| !matched[u as usize] && u != v)
                .max_by_key(|&(u, w)| (w, std::cmp::Reverse(u)));
            if let Some((u, _)) = heaviest {
                matched[v as usize] = true;
                matched[u as usize] = true;
                match_of[v as usize] = u;
                match_of[u as usize] = v;
            }
        }
        match_of
    }

    /// Number of vertices [`WGraph::contract`] would produce for
    /// `match_of`: one per matched pair and one per unmatched vertex.
    pub(crate) fn contracted_size(match_of: &[u32]) -> usize {
        match_of.iter().enumerate().filter(|&(v, &m)| m as usize >= v).count()
    }

    /// Contract a matching into a coarser graph. Returns the coarse graph
    /// and `coarse_of[v]` mapping each fine vertex to its coarse vertex.
    ///
    /// Coarse ids follow the smaller member of each pair. The rows are
    /// filled by scanning coarse vertices `cu` in ascending order and
    /// appending `cu` to the row of every coarse neighbour; by symmetry this
    /// lists each row's neighbours in ascending order, so a repeated
    /// neighbour always sits in the row's last slot and merges there. The
    /// per-row fill cursors are the only scratch.
    pub fn contract(&self, match_of: &[u32]) -> (WGraph, Vec<u32>) {
        let n = self.num_vertices();
        let mut coarse_of = vec![u32::MAX; n];
        // members[c] = (smaller member, partner); equal for a singleton.
        let mut members: Vec<(u32, u32)> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            if coarse_of[v as usize] != u32::MAX {
                continue;
            }
            let m = match_of[v as usize];
            assert!(match_of[m as usize] == v, "match_of pairs {v} with {m} but not back");
            coarse_of[v as usize] = members.len() as u32;
            coarse_of[m as usize] = members.len() as u32;
            members.push((v, m));
        }
        let cn = members.len();
        let mut vwgt = vec![0u64; cn];
        // Row capacity bound: the summed fine degrees of the members.
        let mut xadj = vec![0usize; cn + 1];
        for (v, &c) in coarse_of.iter().enumerate() {
            let c = c as usize;
            vwgt[c] += self.vwgt[v];
            xadj[c + 1] += self.xadj[v + 1] - self.xadj[v];
        }
        for c in 0..cn {
            xadj[c + 1] += xadj[c];
        }
        let mut fill = xadj[..cn].to_vec();
        let mut adjncy = vec![0u32; xadj[cn]];
        let mut adjwgt = vec![0u64; xadj[cn]];
        for (cu, &(a, b)) in members.iter().enumerate() {
            for x in std::iter::once(a).chain((a != b).then_some(b)) {
                let (ids, wgts) = self.row(x as usize);
                for (&y, &w) in ids.iter().zip(wgts) {
                    let cv = coarse_of[y as usize] as usize;
                    if cv == cu {
                        continue;
                    }
                    let f = fill[cv];
                    if f > xadj[cv] && adjncy[f - 1] == cu as u32 {
                        adjwgt[f - 1] += w;
                    } else {
                        adjncy[f] = cu as u32;
                        adjwgt[f] = w;
                        fill[cv] = f + 1;
                    }
                }
            }
        }
        // Close the slack between rows.
        let mut out = 0usize;
        for c in 0..cn {
            let (start, end) = (xadj[c], fill[c]);
            xadj[c] = out;
            adjncy.copy_within(start..end, out);
            adjwgt.copy_within(start..end, out);
            out += end - start;
        }
        xadj[cn] = out;
        adjncy.truncate(out);
        adjwgt.truncate(out);
        (WGraph { vwgt, xadj, adjncy, adjwgt }, coarse_of)
    }

    /// The sub-WGraph induced by `ids` (local indices into this graph).
    /// Edges to vertices outside `ids` are dropped — exactly what recursive
    /// bisection needs, since those edges are already counted in an
    /// ancestor's cut. Returns the subgraph and the id mapping
    /// (`parent_ids[local] = parent index`).
    pub fn induced(&self, ids: &[u32]) -> (WGraph, Vec<u32>) {
        let mut local_of = vec![u32::MAX; self.num_vertices()];
        (self.induced_with(ids, &mut local_of), ids.to_vec())
    }

    /// [`WGraph::induced`] with a caller-owned dense local-index scratch of
    /// at least `num_vertices()` slots, all `u32::MAX` on entry; it is left
    /// that way on return, so one scratch serves any number of calls.
    pub(crate) fn induced_with(&self, ids: &[u32], local_of: &mut [u32]) -> WGraph {
        for (i, &v) in ids.iter().enumerate() {
            local_of[v as usize] = i as u32;
        }
        let mut xadj = Vec::with_capacity(ids.len() + 1);
        xadj.push(0usize);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        for &v in ids {
            let (nbrs, wgts) = self.row(v as usize);
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let lu = local_of[u as usize];
                if lu != u32::MAX {
                    adjncy.push(lu);
                    adjwgt.push(w);
                }
            }
            xadj.push(adjncy.len());
        }
        for &v in ids {
            local_of[v as usize] = u32::MAX;
        }
        let vwgt = ids.iter().map(|&v| self.vwgt[v as usize]).collect();
        WGraph { vwgt, xadj, adjncy, adjwgt }
    }

    /// Edge-cut weight of a bisection (`side[v]` in {false, true}).
    pub fn cut_weight(&self, side: &[bool]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.num_vertices() {
            for (u, w) in self.adj(v) {
                if (u as usize) > v && side[v] != side[u as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Vertex weight on the `true` side of a bisection.
    pub fn side_weight(&self, side: &[bool]) -> u64 {
        side.iter().zip(&self.vwgt).filter(|&(&s, _)| s).map(|(_, &w)| w).sum()
    }
}

/// The map-based constructions the CSR builders replaced, kept as
/// differential oracles: one `BTreeMap` per vertex, adjacency lists as
/// vectors of `(neighbour, weight)`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::WGraph;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use surfer_graph::builder::GraphBuilder;
    use surfer_graph::CsrGraph;

    /// Adjacency lists of a weighted graph, one sorted vector per vertex.
    pub type Lists = Vec<Vec<(u32, u64)>>;

    /// The rows of `g` as adjacency lists.
    pub fn lists(g: &WGraph) -> Lists {
        (0..g.num_vertices()).map(|v| g.adj(v).collect()).collect()
    }

    /// A random directed graph with self-loops, parallel edges (the builder
    /// keeps duplicates) and, through the spare id range, isolated vertices.
    pub fn arb_multigraph() -> impl Strategy<Value = CsrGraph> {
        (1u32..48, 0u32..16).prop_flat_map(|(n, spare)| {
            proptest::collection::vec((0..n, 0..n), 0..240).prop_map(move |edges| {
                let mut b = GraphBuilder::new(n + spare).assume_distinct();
                for (s, d) in edges {
                    b.add_edge_raw(s, d);
                }
                b.build()
            })
        })
    }

    pub fn from_csr(g: &CsrGraph) -> (Vec<u64>, Lists) {
        let n = g.num_vertices() as usize;
        let mut maps: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); n];
        for e in g.edges() {
            if e.src == e.dst {
                continue;
            }
            *maps[e.src.index()].entry(e.dst.0).or_insert(0) += 1;
            *maps[e.dst.index()].entry(e.src.0).or_insert(0) += 1;
        }
        let adj = maps.into_iter().map(|m| m.into_iter().collect()).collect();
        let vwgt =
            (0..n).map(|v| 1 + g.out_degree(surfer_graph::VertexId(v as u32)) as u64).collect();
        (vwgt, adj)
    }

    pub fn contract(vwgt: &[u64], adj: &Lists, match_of: &[u32]) -> (Vec<u64>, Lists, Vec<u32>) {
        let n = vwgt.len();
        let mut coarse_of = vec![u32::MAX; n];
        let mut next = 0u32;
        for v in 0..n as u32 {
            if coarse_of[v as usize] != u32::MAX {
                continue;
            }
            let m = match_of[v as usize];
            coarse_of[v as usize] = next;
            if m != v {
                coarse_of[m as usize] = next;
            }
            next += 1;
        }
        let cn = next as usize;
        let mut cvwgt = vec![0u64; cn];
        for v in 0..n {
            cvwgt[coarse_of[v] as usize] += vwgt[v];
        }
        let mut maps: Vec<BTreeMap<u32, u64>> = vec![BTreeMap::new(); cn];
        for v in 0..n {
            let cv = coarse_of[v];
            for &(u, w) in &adj[v] {
                let cu = coarse_of[u as usize];
                if cu != cv {
                    *maps[cv as usize].entry(cu).or_insert(0) += w;
                }
            }
        }
        let cadj = maps.into_iter().map(|m| m.into_iter().collect()).collect();
        (cvwgt, cadj, coarse_of)
    }

    pub fn induced(vwgt: &[u64], adj: &Lists, ids: &[u32]) -> (Vec<u64>, Lists) {
        let mut local_of = BTreeMap::new();
        for (i, &v) in ids.iter().enumerate() {
            local_of.insert(v, i as u32);
        }
        let svwgt = ids.iter().map(|&v| vwgt[v as usize]).collect();
        let sadj = ids
            .iter()
            .map(|&v| {
                adj[v as usize]
                    .iter()
                    .filter_map(|&(u, w)| local_of.get(&u).map(|&lu| (lu, w)))
                    .collect()
            })
            .collect();
        (svwgt, sadj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oracle::arb_multigraph;
    use proptest::prelude::*;
    use surfer_graph::builder::from_edges;
    use surfer_graph::generators::deterministic::grid;

    #[test]
    fn symmetrizes_and_merges_parallel_edges() {
        // 0->1 and 1->0 merge into one undirected edge of weight 2.
        let g = from_edges(2, [(0, 1), (1, 0)]);
        let w = WGraph::from_csr(&g);
        assert_eq!(w.adj(0).collect::<Vec<_>>(), vec![(1, 2)]);
        assert_eq!(w.adj(1).collect::<Vec<_>>(), vec![(0, 2)]);
        assert_eq!(w.total_edge_weight(), 2);
    }

    #[test]
    fn vertex_weight_models_record_size() {
        let g = from_edges(3, [(0, 1), (0, 2)]);
        let w = WGraph::from_csr(&g);
        assert_eq!(w.vwgt(), &[3, 1, 1]); // 1 + out-degree
        assert_eq!(w.total_vwgt(), 5);
    }

    #[test]
    fn self_loops_ignored() {
        let g = from_edges(2, [(0, 0), (0, 1)]);
        let w = WGraph::from_csr(&g);
        assert_eq!(w.adj(0).collect::<Vec<_>>(), vec![(1, 1)]);
    }

    #[test]
    fn matching_pairs_are_symmetric() {
        let w = WGraph::from_csr(&grid(4, 4));
        let m = w.heavy_edge_matching(1);
        for v in 0..16 {
            let u = m[v] as usize;
            assert_eq!(m[u], v as u32, "matching not symmetric at {v}");
        }
        // A connected grid should match most vertices.
        let matched = (0..16).filter(|&v| m[v] != v as u32).count();
        assert!(matched >= 12, "only {matched} matched");
    }

    #[test]
    fn contraction_preserves_total_weights() {
        let w = WGraph::from_csr(&grid(4, 4));
        let m = w.heavy_edge_matching(2);
        let (c, coarse_of) = w.contract(&m);
        assert_eq!(c.total_vwgt(), w.total_vwgt());
        assert!(c.num_vertices() < w.num_vertices());
        assert_eq!(c.num_vertices(), WGraph::contracted_size(&m));
        assert_eq!(coarse_of.len(), 16);
        // Every coarse id valid.
        assert!(coarse_of.iter().all(|&c_id| (c_id as usize) < c.num_vertices()));
    }

    #[test]
    fn contraction_cut_matches_fine_cut_for_projected_bisection() {
        let w = WGraph::from_csr(&grid(2, 4));
        let m = w.heavy_edge_matching(3);
        let (c, coarse_of) = w.contract(&m);
        // Any coarse bisection, projected to fine, must have the same cut.
        let coarse_side: Vec<bool> = (0..c.num_vertices()).map(|v| v % 2 == 0).collect();
        let fine_side: Vec<bool> = coarse_of.iter().map(|&cv| coarse_side[cv as usize]).collect();
        assert_eq!(c.cut_weight(&coarse_side), w.cut_weight(&fine_side));
    }

    #[test]
    fn cut_and_side_weight() {
        let g = from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let w = WGraph::from_csr(&g);
        let side = vec![false, false, true, true];
        assert_eq!(w.cut_weight(&side), 1);
        assert_eq!(w.side_weight(&side), w.vwgt()[2] + w.vwgt()[3]);
    }

    /// A random matching of `g`: a seeded heavy-edge matching, or (odd
    /// seeds) random pairs that need not share an edge.
    fn arb_matching(g: &WGraph, seed: u64) -> Vec<u32> {
        if seed & 1 == 0 {
            return g.heavy_edge_matching(seed);
        }
        let n = g.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut m: Vec<u32> = (0..n as u32).collect();
        for pair in order.chunks(2).filter(|p| p.len() == 2 && p[0] % 3 != 0) {
            m[pair[0] as usize] = pair[1];
            m[pair[1] as usize] = pair[0];
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn from_csr_matches_map_oracle(g in arb_multigraph()) {
            let w = WGraph::from_csr(&g);
            let (vwgt, adj) = oracle::from_csr(&g);
            prop_assert_eq!(w.vwgt(), &vwgt[..]);
            prop_assert_eq!(oracle::lists(&w), adj);
        }

        #[test]
        fn contract_matches_map_oracle(g in arb_multigraph(), seed in 0u64..1000) {
            let w = WGraph::from_csr(&g);
            let m = arb_matching(&w, seed);
            let (c, coarse_of) = w.contract(&m);
            let (cvwgt, cadj, ocoarse_of) = oracle::contract(w.vwgt(), &oracle::lists(&w), &m);
            prop_assert_eq!(&coarse_of, &ocoarse_of);
            prop_assert_eq!(c.vwgt(), &cvwgt[..]);
            prop_assert_eq!(oracle::lists(&c), cadj);
            prop_assert_eq!(c.num_vertices(), WGraph::contracted_size(&m));
        }

        #[test]
        fn induced_matches_map_oracle(g in arb_multigraph(), seed in 0u64..1000, keep in 1u64..8) {
            let w = WGraph::from_csr(&g);
            // A random subset in random order.
            let mut ids: Vec<u32> = (0..w.num_vertices() as u32).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed));
            ids.truncate((w.num_vertices() as u64 * keep / 8) as usize);
            let (sub, back) = w.induced(&ids);
            let (svwgt, sadj) = oracle::induced(w.vwgt(), &oracle::lists(&w), &ids);
            prop_assert_eq!(&back, &ids);
            prop_assert_eq!(sub.vwgt(), &svwgt[..]);
            prop_assert_eq!(oracle::lists(&sub), sadj);
        }
    }
}
