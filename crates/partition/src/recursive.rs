//! Recursive P-way partitioning by multilevel bisection.
//!
//! §4: Surfer partitions into `P = 2^L` parts with `L` passes of bisection,
//! recording the partition sketch. The two halves of every bisection are
//! processed in parallel (std scoped threads), mirroring the parallel
//! multilevel algorithms of Karypis & Kumar the paper adapts.

use crate::assignment::Partitioning;
use crate::bisect::{bisect_wgraph, BisectConfig};
use crate::sketch::{PartitionSketch, SketchNode, SketchNodeId};
use crate::wgraph::WGraph;
use surfer_graph::CsrGraph;

/// Result of a P-way partitioning run.
#[derive(Debug, Clone)]
pub struct KWayResult {
    /// Vertex-to-partition assignment.
    pub partitioning: Partitioning,
    /// The recorded partition sketch.
    pub sketch: PartitionSketch,
}

/// Recursive multilevel partitioner (the "local partitioning algorithm" —
/// our Metis stand-in).
#[derive(Debug, Clone, Default)]
pub struct RecursivePartitioner {
    /// Bisection tuning.
    pub config: BisectConfig,
}

/// Outcome of one recursion node, gathered bottom-up.
struct SubResult {
    /// `(vertex, pid)` assignments from this subtree.
    assignments: Vec<(u32, u32)>,
    /// Sketch subtree, parent-linked after the fact.
    nodes: Vec<OwnedNode>,
}

struct OwnedNode {
    level: u32,
    /// Index of the parent within the same `nodes` vec (usize::MAX = subtree root).
    parent_local: usize,
    children_local: Option<(usize, usize)>,
    pid: Option<u32>,
    cut_weight: u64,
    vertex_count: u32,
}

impl RecursivePartitioner {
    /// Construct with a custom bisection config.
    pub fn new(config: BisectConfig) -> Self {
        RecursivePartitioner { config }
    }

    /// Partition `g` into `num_partitions` (a power of two) parts.
    pub fn partition(&self, g: &CsrGraph, num_partitions: u32) -> KWayResult {
        assert!(num_partitions >= 1, "need at least one partition");
        assert!(num_partitions.is_power_of_two(), "P must be a power of two (P = 2^L, §4.2)");
        assert!(
            num_partitions <= g.num_vertices().max(1),
            "more partitions ({num_partitions}) than vertices ({})",
            g.num_vertices()
        );
        let levels = num_partitions.trailing_zeros();
        let ids: Vec<u32> = (0..g.num_vertices()).collect();
        let sub = if levels == 0 {
            leaf(ids, 0, 0)
        } else {
            self.recurse(&WGraph::from_csr(g), &ids, 0, levels, 0, self.config.seed)
        };

        // Assemble the flat assignment.
        let mut pids = vec![0u32; g.num_vertices() as usize];
        for &(v, p) in &sub.assignments {
            pids[v as usize] = p;
        }
        let partitioning = Partitioning::new(pids, num_partitions);

        // Re-link the owned subtree into a PartitionSketch (root-first push
        // order is guaranteed: each node is appended before its children).
        let mut sketch = PartitionSketch::new();
        let mut global_ids: Vec<SketchNodeId> = Vec::with_capacity(sub.nodes.len());
        for node in &sub.nodes {
            let parent =
                (node.parent_local != usize::MAX).then(|| global_ids[node.parent_local]);
            let id = sketch.push(SketchNode {
                level: node.level,
                parent,
                children: None,
                pid: node.pid,
                cut_weight: node.cut_weight,
                vertex_count: node.vertex_count,
            });
            global_ids.push(id);
        }
        for (i, node) in sub.nodes.iter().enumerate() {
            if let Some((l, r)) = node.children_local {
                sketch.set_children(global_ids[i], global_ids[l], global_ids[r]);
            }
        }
        KWayResult { partitioning, sketch }
    }

    /// Bisect `sub`, whose local vertex `l` is root vertex `back[l]`, and
    /// partition each half into `2^(levels - level - 1)` parts with pids
    /// starting at `first_pid`.
    fn recurse(
        &self,
        sub: &WGraph,
        back: &[u32],
        level: u32,
        levels: u32,
        first_pid: u32,
        seed: u64,
    ) -> SubResult {
        let vertex_count = back.len() as u32;
        let mut cfg = self.config.clone();
        cfg.seed = seed;
        // Halves as local ids of `sub`, ascending.
        let (left, right, cut) = if sub.num_vertices() >= 2 {
            let b = bisect_wgraph(sub, &cfg);
            let mut left = Vec::new();
            let mut right = Vec::new();
            for (local, &s) in b.side.iter().enumerate() {
                if s {
                    left.push(local as u32);
                } else {
                    right.push(local as u32);
                }
            }
            // Guard: a degenerate bisection (empty side) cannot seed the next
            // level; steal one vertex to keep the sketch complete.
            if left.is_empty() {
                left.push(right.pop().expect("non-empty graph"));
            } else if right.is_empty() {
                right.push(left.pop().expect("non-empty graph"));
            }
            (left, right, b.cut_weight)
        } else {
            // 0- or 1-vertex subgraph: halves are (rest, empty-but-padded).
            ((0..sub.num_vertices() as u32).collect(), Vec::new(), 0)
        };
        let root_ids =
            |local: &[u32]| -> Vec<u32> { local.iter().map(|&l| back[l as usize]).collect() };

        let half = 1u32 << (levels - level - 1);
        let (lseed, rseed) = (seed.wrapping_mul(6364136223846793005).wrapping_add(1), seed.wrapping_mul(6364136223846793005).wrapping_add(2));
        let (mut lres, rres) = if level + 1 == levels {
            (
                leaf(root_ids(&left), level + 1, first_pid),
                leaf(root_ids(&right), level + 1, first_pid + half),
            )
        } else {
            // Both halves are induced from this node's graph through one
            // dense local-index scratch.
            let (lsub, rsub) = {
                let mut local_of = vec![u32::MAX; sub.num_vertices()];
                (sub.induced_with(&left, &mut local_of), sub.induced_with(&right, &mut local_of))
            };
            let (lback, rback) = (root_ids(&left), root_ids(&right));
            let run_left = || self.recurse(&lsub, &lback, level + 1, levels, first_pid, lseed);
            let run_right =
                || self.recurse(&rsub, &rback, level + 1, levels, first_pid + half, rseed);
            if back.len() > 4096 {
                // Parallel halves for big nodes; joining both keeps the merge
                // deterministic regardless of scheduling.
                std::thread::scope(|s| {
                    let lh = s.spawn(run_left);
                    let rres = run_right();
                    (lh.join().expect("left half"), rres)
                })
            } else {
                (run_left(), run_right())
            }
        };

        // Merge: self node first, then the left subtree, then the right.
        let mut nodes = vec![OwnedNode {
            level,
            parent_local: usize::MAX,
            children_local: None,
            pid: None,
            cut_weight: cut,
            vertex_count,
        }];
        let l_root = nodes.len();
        let l_off = nodes.len();
        nodes.extend(lres.nodes.drain(..).map(|mut n| {
            n.parent_local = if n.parent_local == usize::MAX { 0 } else { n.parent_local + l_off };
            n.children_local = n.children_local.map(|(a, b)| (a + l_off, b + l_off));
            n
        }));
        let r_root = nodes.len();
        let r_off = nodes.len();
        nodes.extend(rres.nodes.into_iter().map(|mut n| {
            n.parent_local = if n.parent_local == usize::MAX { 0 } else { n.parent_local + r_off };
            n.children_local = n.children_local.map(|(a, b)| (a + r_off, b + r_off));
            n
        }));
        nodes[0].children_local = Some((l_root, r_root));

        let mut assignments = lres.assignments;
        assignments.extend(rres.assignments);
        SubResult { assignments, nodes }
    }
}

/// A leaf of the recursion: every vertex of `ids` (root indices) goes to
/// partition `pid`.
fn leaf(ids: Vec<u32>, level: u32, pid: u32) -> SubResult {
    let vertex_count = ids.len() as u32;
    SubResult {
        assignments: ids.into_iter().map(|v| (v, pid)).collect(),
        nodes: vec![OwnedNode {
            level,
            parent_local: usize::MAX,
            children_local: None,
            pid: Some(pid),
            cut_weight: 0,
            vertex_count,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::quality;
    use surfer_graph::generators::deterministic::grid;
    use surfer_graph::generators::social::{stitched_small_worlds, SocialGraphConfig};

    #[test]
    fn four_way_grid() {
        let g = grid(8, 8);
        let r = RecursivePartitioner::default().partition(&g, 4);
        let q = quality(&g, &r.partitioning);
        assert_eq!(r.partitioning.num_partitions(), 4);
        assert!(q.balance < 1.4, "balance {}", q.balance);
        assert!(q.inner_edge_ratio > 0.6, "ier {}", q.inner_edge_ratio);
        assert_eq!(r.sketch.num_levels(), 3);
        assert_eq!(r.sketch.leaves().len(), 4);
        assert!(r.sketch.is_monotone());
    }

    #[test]
    fn every_vertex_assigned_exactly_once() {
        let g = grid(10, 10);
        let r = RecursivePartitioner::default().partition(&g, 8);
        let sizes = r.partitioning.sizes();
        assert_eq!(sizes.iter().sum::<u32>(), 100);
        assert!(sizes.iter().all(|&s| s > 0), "empty partition: {sizes:?}");
    }

    #[test]
    fn community_graph_high_ier() {
        let cfg = SocialGraphConfig::new(8, 8, 3);
        let g = stitched_small_worlds(&cfg);
        let r = RecursivePartitioner::default().partition(&g, 8);
        let q = quality(&g, &r.partitioning);
        // 8 communities into 8 partitions: most edges stay inner (the paper's
        // own Table 5 reports ier = 57.7% at P = 64). Random partitioning
        // would give ier ~ 1/P = 12.5%.
        assert!(q.inner_edge_ratio > 0.6, "ier {}", q.inner_edge_ratio);
    }

    #[test]
    fn sketch_records_shrinking_subgraphs() {
        let g = grid(8, 8);
        let r = RecursivePartitioner::default().partition(&g, 4);
        let root = r.sketch.root().unwrap();
        assert_eq!(r.sketch.node(root).vertex_count, 64);
        let (l, rr) = r.sketch.node(root).children.unwrap();
        assert_eq!(
            r.sketch.node(l).vertex_count + r.sketch.node(rr).vertex_count,
            64
        );
    }

    #[test]
    fn single_partition_is_trivial() {
        let g = grid(3, 3);
        let r = RecursivePartitioner::default().partition(&g, 1);
        assert_eq!(r.partitioning.num_partitions(), 1);
        assert!(r.partitioning.as_slice().iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic() {
        let g = stitched_small_worlds(&SocialGraphConfig::new(4, 7, 5));
        let a = RecursivePartitioner::default().partition(&g, 4);
        let b = RecursivePartitioner::default().partition(&g, 4);
        assert_eq!(a.partitioning, b.partitioning);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        RecursivePartitioner::default().partition(&grid(4, 4), 3);
    }
}
