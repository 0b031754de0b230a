//! Golden partition digests: the recursive partitioner's output, pinned.
//!
//! Every row names an input graph and a partition count P, and pins two
//! CRC32s of what `RecursivePartitioner::default().partition` returns: one of
//! the pid vector, one of the partition sketch's nodes. The partitioner's
//! data layout and refinement heaps may be rewritten for speed, but its
//! output must stay byte-identical (same matching order, RNG draws,
//! adjacency order and tie-breaks), so these digests never change. A
//! mismatch prints every failing row with its fresh digests.

use surfer_graph::builder::from_edges;
use surfer_graph::generators::deterministic::{grid, path, star};
use surfer_graph::generators::social::{
    msn_like, stitched_small_worlds, MsnScale, SocialGraphConfig,
};
use surfer_graph::CsrGraph;
use surfer_partition::{crc32, KWayResult, RecursivePartitioner};

/// CRC32 of the pid vector (little-endian `u32` per vertex).
fn pid_digest(r: &KWayResult) -> u32 {
    let bytes: Vec<u8> = r.partitioning.as_slice().iter().flat_map(|p| p.to_le_bytes()).collect();
    crc32(&bytes)
}

/// CRC32 of the sketch nodes in push order: level, parent, children, pid,
/// cut weight and vertex count, absent links encoded as all-ones.
fn sketch_digest(r: &KWayResult) -> u32 {
    let mut bytes = Vec::new();
    for n in r.sketch.nodes() {
        let link = |x: Option<usize>| x.map_or(u64::MAX, |x| x as u64);
        bytes.extend(n.level.to_le_bytes());
        bytes.extend(link(n.parent).to_le_bytes());
        bytes.extend(link(n.children.map(|c| c.0)).to_le_bytes());
        bytes.extend(link(n.children.map(|c| c.1)).to_le_bytes());
        bytes.extend(n.pid.unwrap_or(u32::MAX).to_le_bytes());
        bytes.extend(n.cut_weight.to_le_bytes());
        bytes.extend(n.vertex_count.to_le_bytes());
    }
    crc32(&bytes)
}

/// A ring over `0..30` with self-loops on every fifth vertex, a chord
/// fan, and ten isolated vertices `30..40`.
fn loops_and_isolated() -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = (0..30).map(|v| (v, (v + 1) % 30)).collect();
    edges.extend((0..30).step_by(5).map(|v| (v, v)));
    edges.extend((1..30).step_by(7).map(|v| (0, v)));
    from_edges(40, edges)
}

/// Three disjoint components: a 5x5 grid, a 12-cycle with chords and a
/// 9-vertex path, with the grid's ids interleaved after the others.
fn disconnected() -> CsrGraph {
    let mut edges = Vec::new();
    for v in 0..12u32 {
        edges.push((v, (v + 1) % 12));
        edges.push((v, (v + 5) % 12));
    }
    for v in 12..20u32 {
        edges.push((v, v + 1));
    }
    let g = grid(5, 5);
    for e in g.edges() {
        edges.push((21 + e.src.0, 21 + e.dst.0));
    }
    from_edges(46, edges)
}

/// The pinned inputs, by name.
fn input(name: &str) -> CsrGraph {
    match name {
        "msn-tiny-0" => msn_like(MsnScale::Tiny, 0),
        "msn-tiny-1" => msn_like(MsnScale::Tiny, 1),
        "msn-tiny-2" => msn_like(MsnScale::Tiny, 2),
        "grid-16x16" => grid(16, 16),
        "star-64" => star(64),
        "path-100" => path(100),
        "small-world-4x7" => stitched_small_worlds(&SocialGraphConfig::new(4, 7, 5)),
        "loops-and-isolated" => loops_and_isolated(),
        "disconnected" => disconnected(),
        other => unreachable!("unknown input {other}"),
    }
}

/// `(input, P, pid CRC32, sketch CRC32)`, recorded from the partitioner
/// before its fast-path rewrite.
const GOLDEN: &[(&str, u32, u32, u32)] = &[
    ("msn-tiny-0", 16, 0x0c9aea89, 0xd64f9870),
    ("msn-tiny-1", 16, 0xc1d89b65, 0xdfa2aec6),
    ("msn-tiny-2", 16, 0xe38b70e8, 0x7b88f55b),
    ("grid-16x16", 2, 0x32261eea, 0x38d7bd28),
    ("grid-16x16", 4, 0xa1831e22, 0x83c23f08),
    ("grid-16x16", 16, 0x70d6a5d9, 0xae895659),
    ("star-64", 2, 0xda2ffd71, 0xdcb40959),
    ("star-64", 4, 0xabc7b733, 0xce58d15c),
    ("star-64", 16, 0x9ccd6124, 0xbf43f297),
    ("path-100", 2, 0x560894a9, 0xb569d29b),
    ("path-100", 4, 0x97f73bdc, 0x41ab81ee),
    ("path-100", 16, 0xaabf2169, 0x817cc50a),
    ("small-world-4x7", 2, 0x4de9677d, 0xdf93d1ff),
    ("small-world-4x7", 4, 0xeadbc8a1, 0x1c1d7146),
    ("small-world-4x7", 16, 0xd1587db9, 0x7f97eec8),
    ("loops-and-isolated", 2, 0xd607cef1, 0xda28ac55),
    ("loops-and-isolated", 4, 0x21a8e28a, 0x88ff50cf),
    ("loops-and-isolated", 16, 0xd23b13fe, 0x1d809cdf),
    ("disconnected", 2, 0xc348bcba, 0x77eca996),
    ("disconnected", 4, 0x4776f7e0, 0x4e6af9a2),
    ("disconnected", 16, 0xf15f28a0, 0x0e6a94b9),
];

#[test]
fn partitions_match_golden_digests() {
    let mut mismatches = Vec::new();
    for &(name, p, pid_crc, sketch_crc) in GOLDEN {
        let r = RecursivePartitioner::default().partition(&input(name), p);
        let got = (pid_digest(&r), sketch_digest(&r));
        if got != (pid_crc, sketch_crc) {
            mismatches.push(format!("    (\"{name}\", {p}, {:#010x}, {:#010x}),", got.0, got.1));
        }
    }
    assert!(mismatches.is_empty(), "golden digests differ:\n{}", mismatches.join("\n"));
}
