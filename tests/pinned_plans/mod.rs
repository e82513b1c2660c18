//! Stash plans frozen as data: each file's header says which model it
//! belongs to and why it is kept.

use echo_graph::{Graph, SegmentId, StashPlan, StashPolicy};

/// Rebuilds the plan `text` describes on `graph`. Every named node must be
/// the one op node of that name.
pub fn load(graph: &Graph, text: &str) -> StashPlan {
    let mut plan = StashPlan::stash_all();
    let mut segment = None;
    for line in text.lines().filter(|line| !line.starts_with('#')) {
        let mut tokens = line.split_whitespace();
        if !line.starts_with(' ') {
            let mut field = || {
                tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .expect("an entry starts with `segment pool`")
            };
            segment = Some(SegmentId {
                id: field(),
                pool: field(),
            });
        }
        let segment = segment.expect("a continuation line follows an entry");
        for name in tokens {
            let mut ops = graph
                .nodes()
                .iter()
                .filter(|node| node.op().is_some() && node.name == name);
            let node = ops.next().unwrap_or_else(|| panic!("no op node {name}"));
            assert!(ops.next().is_none(), "op name {name} is ambiguous");
            plan.set(node.id, StashPolicy::Recompute(segment));
        }
    }
    plan
}
