//! Tree and program generators shared by the logic's property tests: the
//! integration suites include this module with `mod common;`, the crate's
//! unit tests through a `#[path]` module in `lib.rs`.

use ftree::{Direction, Tree};
use proptest::prelude::*;

/// The label alphabet of generated trees.
pub const LABELS: [&str; 3] = ["a", "b", "c"];

/// One label of [`LABELS`].
pub fn arb_label() -> impl Strategy<Value = &'static str> {
    prop::sample::select(&LABELS[..])
}

/// An unmarked tree of height at most `depth`, with up to two children per
/// node.
pub fn arb_tree(depth: u32) -> impl Strategy<Value = Tree> {
    let leaf = arb_label().prop_map(Tree::leaf);
    leaf.prop_recursive(depth, 10, 3, |inner| {
        (arb_label(), prop::collection::vec(inner, 0..3)).prop_map(|(l, cs)| Tree::node(l, cs))
    })
}

/// The program (`mulogic::Program`) coded by `code`, taken modulo 4.
pub fn prog(code: u8) -> Direction {
    match code % 4 {
        0 => Direction::Down1,
        1 => Direction::Down2,
        2 => Direction::Up1,
        _ => Direction::Up2,
    }
}
