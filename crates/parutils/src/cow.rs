//! Copy-on-write access to `Arc`-shared tree nodes, the path-copying step
//! every index family's snapshot rests on.
//!
//! A snapshot of a tree is a second handle on the same root; an update then
//! copies only the nodes along the paths it touches (path copying, Driscoll,
//! Sarnak, Sleator and Tarjan, *Making Data Structures Persistent*, JCSS
//! 1989). Each helper here moves or borrows a node in place when its handle
//! is the only one, and clones it otherwise, bumping
//! [`counters::NODES_COPIED`] once per node or child array cloned.

use crate::stats::counters;
use std::sync::Arc;

/// Take `node` out of its `Arc` for a by-value rewrite: moved when this is
/// the only handle, cloned (one node copied) when a snapshot shares it.
pub fn unshare<N: Clone>(node: Arc<N>) -> N {
    Arc::try_unwrap(node).unwrap_or_else(|shared| {
        counters::NODES_COPIED.bump();
        (*shared).clone()
    })
}

/// Mutable access to `node`, cloning it first (one node copied) when a
/// snapshot shares it.
pub fn make_mut<N: Clone>(node: &mut Arc<N>) -> &mut N {
    if Arc::get_mut(node).is_none() {
        counters::NODES_COPIED.bump();
    }
    Arc::make_mut(node)
}

/// Mutable access to a child array, cloning the array first (one copy)
/// when a snapshot shares it.
pub fn make_mut_slice<N: Clone>(nodes: &mut Arc<[N]>) -> &mut [N] {
    if Arc::get_mut(nodes).is_none() {
        counters::NODES_COPIED.bump();
    }
    Arc::make_mut(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_only_shared_nodes() {
        let mut unique = Arc::new(1u32);
        let ((), copied) = counters::NODES_COPIED.scoped(|| *make_mut(&mut unique) += 1);
        assert_eq!((*unique, copied), (2, 0));

        let snapshot = Arc::clone(&unique);
        let ((), copied) = counters::NODES_COPIED.scoped(|| *make_mut(&mut unique) += 1);
        assert_eq!((*snapshot, *unique, copied), (2, 3, 1));

        let mut children: Arc<[u32]> = Arc::from([1, 2, 3]);
        let shared = Arc::clone(&children);
        let ((), copied) = counters::NODES_COPIED.scoped(|| make_mut_slice(&mut children)[0] = 9);
        assert_eq!(
            (&*shared, &*children, copied),
            (&[1, 2, 3][..], &[9, 2, 3][..], 1)
        );

        let node = Arc::new([1u32, 2, 3]);
        let (value, copied) = counters::NODES_COPIED.scoped(|| unshare(Arc::clone(&node)));
        assert_eq!((value, copied), ([1, 2, 3], 1));
        let (value, copied) = counters::NODES_COPIED.scoped(|| unshare(node));
        assert_eq!((value, copied), ([1, 2, 3], 0));
    }
}
