//! A copy-on-write ordered index over [`PackedLoc`]s.
//!
//! Kept only for `e2e`, deleted with its probe (ROADMAP item 1): no store
//! code references it. The store serves point operations from the P-CLHT
//! alone; merges, the compactor and recovery maintain nothing else.
//!
//! * **Copy-on-write B-tree.** A writer path-copies the nodes from the
//!   root to the touched leaf, publishes the new root with one release
//!   store, and retires every replaced node through the `crossbeam::epoch`
//!   shim. Nodes are immutable once published, so readers never see a
//!   half-edited node.
//! * **Epoch-pinned lock-free readers.** A reader pins an epoch guard,
//!   loads the root, and walks an immutable generation of the tree; every
//!   node of that generation stays alive until the guard drops, however
//!   many writers publish newer generations meanwhile.
//! * **Conditional relocation.** [`OrderedIndex::relocate`] swings a
//!   stored location only if it still holds the old one, exactly like the
//!   hash-index CAS.
//!
//! Writers serialize on one mutex; readers take no lock at all.
//!
//! Deletes do not rebalance: a removal path-copies the leaf (dropping nodes
//! that become empty) but never borrows from siblings, so interior nodes
//! can run under-full. Height never grows from deletes and inserts split as
//! usual, so the tree stays within one split of balanced for insert-heavy
//! use; [`OrderedIndex::check_tree`] verifies the invariants that actually
//! hold (order, bounds, uniform leaf depth, occupancy ceilings, live
//! locations).

use crate::loc::PackedLoc;
use dinomo_pclht::Guard;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Maximum keys per node (leaf or internal). Small enough that unit tests
/// exercise splits and multi-level trees with a few dozen keys.
pub const MAX_NODE_KEYS: usize = 8;

/// One immutable tree node. `pivots[i]` is a lower bound for every key in
/// `children[i]` and an exclusive upper bound for `children[i-1]` — exact
/// at insert time, possibly slack after deletes (removing a subtree's
/// minimum leaves the pivot as a valid lower bound).
enum Node {
    Leaf {
        keys: Vec<Vec<u8>>,
        locs: Vec<PackedLoc>,
    },
    Internal {
        pivots: Vec<Vec<u8>>,
        children: Vec<*const Node>,
    },
}

// SAFETY: nodes are immutable after publication and only dropped through
// epoch retirement (or `Drop` with exclusive access), so sharing the raw
// pointers across threads is sound.
unsafe impl Send for Node {}
unsafe impl Sync for Node {}

impl Node {
    fn len(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Internal { children, .. } => children.len(),
        }
    }

    /// Index of the child a `key` belongs to: the last pivot `<= key`
    /// (clamped to 0, so keys below every pivot route to the leftmost
    /// child and become its new minimum).
    fn child_index(pivots: &[Vec<u8>], key: &[u8]) -> usize {
        match pivots.binary_search_by(|p| p.as_slice().cmp(key)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }
}

/// What one writer operation replaced; every pointer in here is retired
/// through the caller's epoch guard once the new root is published.
type Retired = Vec<*const Node>;

/// Caller-supplied per-entry validation for [`OrderedIndex::check_tree`]:
/// given a key and its stored location, return `Err` with a description if
/// the location is invalid (e.g. points into a freed segment).
pub type LocValidator<'a> = dyn Fn(&[u8], PackedLoc) -> Result<(), String> + 'a;

/// Statistics returned by a successful [`OrderedIndex::check_tree`] walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Live keys in the tree.
    pub keys: u64,
    /// Leaf nodes.
    pub leaves: u64,
    /// Internal nodes.
    pub internal_nodes: u64,
    /// Tree height (0 for an empty tree, 1 for a root leaf).
    pub depth: u64,
}

/// The copy-on-write ordered index. See the module docs.
pub struct OrderedIndex {
    /// Current root generation (null = empty tree). Writers publish with a
    /// release store under [`OrderedIndex::write_lock`]; readers load with
    /// acquire under an epoch pin.
    root: AtomicPtr<Node>,
    /// Serializes writers.
    write_lock: Mutex<()>,
    /// Live key count (maintained by writers; racy reads are fine — it is
    /// a statistic, not a correctness input).
    len: AtomicU64,
}

impl std::fmt::Debug for OrderedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedIndex")
            .field("len", &self.len())
            .finish()
    }
}

impl Default for OrderedIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl OrderedIndex {
    /// An empty index.
    pub fn new() -> Self {
        OrderedIndex {
            root: AtomicPtr::new(std::ptr::null_mut()),
            write_lock: Mutex::new(()),
            len: AtomicU64::new(0),
        }
    }

    /// Live keys in the index.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` if the index holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert `key -> loc`, replacing the stored location if the key is
    /// already present. The replaced path nodes are retired through the
    /// caller's guard.
    pub fn upsert(&self, guard: &Guard, key: &[u8], loc: PackedLoc) {
        let _w = self.write_lock.lock();
        let root = self.root.load(Ordering::Acquire);
        let mut retired: Retired = Vec::new();
        let (new_root, inserted) = if root.is_null() {
            let leaf = Box::into_raw(Box::new(Node::Leaf {
                keys: vec![key.to_vec()],
                locs: vec![loc],
            }));
            (leaf as *const Node, true)
        } else {
            // SAFETY: `root` was published by a previous writer and cannot
            // be retired while we hold the write lock.
            match unsafe { insert_rec(root, key, loc, &mut retired) } {
                (InsertResult::One(n), inserted) => (n, inserted),
                (InsertResult::Split(left, pivot, right), inserted) => {
                    let left_min = unsafe { subtree_min(left) };
                    let new_root = Box::into_raw(Box::new(Node::Internal {
                        pivots: vec![left_min, pivot],
                        children: vec![left, right],
                    }));
                    (new_root as *const Node, inserted)
                }
            }
        };
        if inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        self.publish(guard, new_root as *mut Node, retired);
    }

    /// Remove `key`; returns `true` if it was present.
    pub fn remove(&self, guard: &Guard, key: &[u8]) -> bool {
        let _w = self.write_lock.lock();
        let root = self.root.load(Ordering::Acquire);
        if root.is_null() {
            return false;
        }
        let mut retired: Retired = Vec::new();
        // SAFETY: as in `upsert` — the root is protected by the write lock.
        match unsafe { remove_rec(root, key, &mut retired) } {
            RemoveResult::NotFound => false,
            RemoveResult::Replaced(new_root) => {
                self.len.fetch_sub(1, Ordering::Relaxed);
                // Collapse single-child internal roots so height shrinks
                // back as the tree empties.
                let mut new_root = new_root;
                while let Some(n) = new_root {
                    // SAFETY: freshly built (or surviving) nodes of the new
                    // generation, not yet shared.
                    match unsafe { &*n } {
                        Node::Internal { children, .. } if children.len() == 1 => {
                            let child = children[0];
                            retired.push(n);
                            new_root = Some(child);
                        }
                        _ => break,
                    }
                }
                let ptr = new_root.unwrap_or(std::ptr::null());
                self.publish(guard, ptr as *mut Node, retired);
                true
            }
        }
    }

    /// Conditionally swing `key`'s stored location from `old` to `new`.
    /// Returns `false` (and changes nothing) if the key is absent or
    /// stores a different location (a newer location must win).
    pub fn relocate(&self, guard: &Guard, key: &[u8], old: PackedLoc, new: PackedLoc) -> bool {
        let _w = self.write_lock.lock();
        let root = self.root.load(Ordering::Acquire);
        if root.is_null() {
            return false;
        }
        // SAFETY: root protected by the write lock (see `upsert`).
        if unsafe { lookup(root, key) } != Some(old) {
            return false;
        }
        let mut retired: Retired = Vec::new();
        let (result, _) = unsafe { insert_rec(root, key, new, &mut retired) };
        let InsertResult::One(new_root) = result else {
            unreachable!("replacing an existing key cannot split");
        };
        self.publish(guard, new_root as *mut Node, retired);
        true
    }

    /// Current stored location of `key`, if any, read under the caller's
    /// pin (test and diagnostic helper; range reads use
    /// [`OrderedIndex::snapshot`]).
    pub fn get(&self, _guard: &Guard, key: &[u8]) -> Option<PackedLoc> {
        let root = self.root.load(Ordering::Acquire);
        if root.is_null() {
            return None;
        }
        // SAFETY: the caller's pin keeps this generation alive.
        unsafe { lookup(root, key) }
    }

    /// Pin-protected snapshot of the current generation. The returned
    /// handle borrows the guard, so it cannot outlive the pin that keeps
    /// its nodes alive.
    pub fn snapshot<'g>(&self, _guard: &'g Guard) -> Snapshot<'g> {
        Snapshot {
            root: self.root.load(Ordering::Acquire),
            _guard: std::marker::PhantomData,
        }
    }

    /// Drop every key: retire the whole current generation and publish an
    /// empty tree.
    pub fn clear(&self, guard: &Guard) {
        let _w = self.write_lock.lock();
        let root = self.root.load(Ordering::Acquire);
        self.len.store(0, Ordering::Relaxed);
        if root.is_null() {
            return;
        }
        let mut retired: Retired = Vec::new();
        // SAFETY: the write lock keeps the current generation from being
        // retired by anyone else while we collect it.
        unsafe { collect_rec(root, &mut retired) };
        self.publish(guard, std::ptr::null_mut(), retired);
    }

    /// Swap in `new_root` and retire the replaced generation's nodes.
    fn publish(&self, guard: &Guard, new_root: *mut Node, retired: Retired) {
        self.root.store(new_root, Ordering::Release);
        for node in retired {
            // SAFETY: `node` belonged to the replaced generation — no new
            // reader can reach it after the release store above, and the
            // write lock guarantees it is retired exactly once.
            unsafe {
                let raw = node as *mut Node;
                guard.defer_unchecked(move || drop(Box::from_raw(raw)));
            }
        }
    }

    /// Walk the whole tree verifying its structural invariants: strictly
    /// increasing pivots, keys within their pivot bounds, uniform leaf
    /// depth, node occupancy within `1..=MAX_NODE_KEYS`, a strictly
    /// increasing global leaf chain, and `validate(key, loc)` for every
    /// stored location (the caller supplies segment-liveness checking).
    /// Returns tree statistics on success, a description of the first
    /// violated invariant otherwise.
    ///
    /// Runs under the write lock so the walked generation is the current
    /// one and cannot be retired mid-walk.
    pub fn check_tree(&self, validate: &LocValidator) -> Result<TreeStats, String> {
        let _w = self.write_lock.lock();
        let root = self.root.load(Ordering::Acquire);
        let mut stats = TreeStats::default();
        if root.is_null() {
            if !self.is_empty() {
                return Err(format!("empty tree but len() = {}", self.len()));
            }
            return Ok(stats);
        }
        let mut last_key: Option<Vec<u8>> = None;
        let mut leaf_depth: Option<u64> = None;
        // SAFETY: the write lock excludes retirement of the current
        // generation for the duration of the walk.
        unsafe {
            check_rec(
                root,
                None,
                None,
                1,
                &mut stats,
                &mut last_key,
                &mut leaf_depth,
                validate,
            )?;
        }
        if stats.keys != self.len() {
            return Err(format!(
                "key count mismatch: walked {} keys, len() = {}",
                stats.keys,
                self.len()
            ));
        }
        Ok(stats)
    }
}

impl Drop for OrderedIndex {
    fn drop(&mut self) {
        // Exclusive access: free the current generation directly. Nodes of
        // older generations were retired through epoch guards and are
        // reclaimed by the epoch machinery.
        let root = *self.root.get_mut();
        if !root.is_null() {
            // SAFETY: `&mut self` — no reader or writer can be live.
            unsafe { drop_rec(root) };
        }
    }
}

/// A pinned, immutable generation of the tree.
#[derive(Clone, Copy)]
pub struct Snapshot<'g> {
    root: *const Node,
    _guard: std::marker::PhantomData<&'g Guard>,
}

impl<'g> Snapshot<'g> {
    /// Iterate `(key, loc)` pairs in key order, starting at the smallest
    /// key `>= start`.
    pub fn range_from(&self, start: &[u8]) -> RangeIter<'g> {
        let mut iter = RangeIter {
            stack: Vec::new(),
            _guard: std::marker::PhantomData,
        };
        if self.root.is_null() {
            return iter;
        }
        // Descend towards `start`, recording the position in every node so
        // the iterator can resume upwards.
        let mut node = self.root;
        loop {
            // SAFETY: the snapshot's guard keeps the generation alive.
            match unsafe { &*node } {
                Node::Internal { pivots, children } => {
                    let idx = Node::child_index(pivots, start);
                    iter.stack.push((node, idx));
                    node = children[idx];
                }
                Node::Leaf { keys, .. } => {
                    let idx = match keys.binary_search_by(|k| k.as_slice().cmp(start)) {
                        Ok(i) | Err(i) => i,
                    };
                    iter.stack.push((node, idx));
                    return iter;
                }
            }
        }
    }
}

/// In-order `(key, loc)` iterator over a [`Snapshot`].
pub struct RangeIter<'g> {
    /// `(node, next index)` from the root down to the current leaf.
    stack: Vec<(*const Node, usize)>,
    _guard: std::marker::PhantomData<&'g Guard>,
}

impl<'g> Iterator for RangeIter<'g> {
    type Item = (Vec<u8>, PackedLoc);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, idx) = self.stack.pop()?;
            // SAFETY: every pointer on the stack belongs to the pinned
            // generation.
            match unsafe { &*node } {
                Node::Leaf { keys, locs } => {
                    if idx < keys.len() {
                        self.stack.push((node, idx + 1));
                        return Some((keys[idx].clone(), locs[idx]));
                    }
                    // Leaf exhausted: fall through to the parent, whose
                    // stack entry already points at the next child.
                }
                Node::Internal { children, .. } => {
                    if idx + 1 < children.len() {
                        self.stack.push((node, idx + 1));
                        // Descend to the leftmost leaf of the next child.
                        let mut child = children[idx + 1];
                        loop {
                            match unsafe { &*child } {
                                Node::Internal { children, .. } => {
                                    self.stack.push((child, 0));
                                    child = children[0];
                                }
                                Node::Leaf { .. } => {
                                    self.stack.push((child, 0));
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Result of a path-copying insert below some node.
enum InsertResult {
    /// The subtree was replaced by one new node.
    One(*const Node),
    /// The subtree split: `(left, right_min_pivot, right)`.
    Split(*const Node, Vec<u8>, *const Node),
}

/// Path-copying upsert. Returns the replacement subtree and whether the
/// key was newly inserted (`false` = replaced in place).
///
/// # Safety
///
/// `node` must point into a generation the caller keeps alive (write lock
/// held and not yet retired).
unsafe fn insert_rec(
    node: *const Node,
    key: &[u8],
    loc: PackedLoc,
    retired: &mut Retired,
) -> (InsertResult, bool) {
    match &*node {
        Node::Leaf { keys, locs } => {
            let mut keys = keys.clone();
            let mut locs = locs.clone();
            let inserted = match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
                Ok(i) => {
                    locs[i] = loc;
                    false
                }
                Err(i) => {
                    keys.insert(i, key.to_vec());
                    locs.insert(i, loc);
                    true
                }
            };
            retired.push(node);
            (split_leaf(keys, locs), inserted)
        }
        Node::Internal { pivots, children } => {
            let idx = Node::child_index(pivots, key);
            let (child_result, inserted) = insert_rec(children[idx], key, loc, retired);
            let mut pivots = pivots.clone();
            let mut children = children.clone();
            // A key below every pivot becomes the leftmost subtree's new
            // minimum: keep the pivot a valid lower bound.
            if key < pivots[0].as_slice() {
                pivots[0] = key.to_vec();
            }
            match child_result {
                InsertResult::One(c) => children[idx] = c,
                InsertResult::Split(left, pivot, right) => {
                    children[idx] = left;
                    pivots.insert(idx + 1, pivot);
                    children.insert(idx + 1, right);
                }
            }
            retired.push(node);
            (split_internal(pivots, children), inserted)
        }
    }
}

/// Box a (possibly overfull) leaf, splitting it in half when needed.
fn split_leaf(keys: Vec<Vec<u8>>, locs: Vec<PackedLoc>) -> InsertResult {
    if keys.len() <= MAX_NODE_KEYS {
        let node = Box::into_raw(Box::new(Node::Leaf { keys, locs }));
        return InsertResult::One(node as *const Node);
    }
    let mid = keys.len() / 2;
    let mut keys = keys;
    let mut locs = locs;
    let right_keys = keys.split_off(mid);
    let right_locs = locs.split_off(mid);
    let pivot = right_keys[0].clone();
    let left = Box::into_raw(Box::new(Node::Leaf { keys, locs }));
    let right = Box::into_raw(Box::new(Node::Leaf {
        keys: right_keys,
        locs: right_locs,
    }));
    InsertResult::Split(left as *const Node, pivot, right as *const Node)
}

/// Box a (possibly overfull) internal node, splitting it when needed.
fn split_internal(pivots: Vec<Vec<u8>>, children: Vec<*const Node>) -> InsertResult {
    if children.len() <= MAX_NODE_KEYS {
        let node = Box::into_raw(Box::new(Node::Internal { pivots, children }));
        return InsertResult::One(node as *const Node);
    }
    let mid = children.len() / 2;
    let mut pivots = pivots;
    let mut children = children;
    let right_pivots = pivots.split_off(mid);
    let right_children = children.split_off(mid);
    let pivot = right_pivots[0].clone();
    let left = Box::into_raw(Box::new(Node::Internal { pivots, children }));
    let right = Box::into_raw(Box::new(Node::Internal {
        pivots: right_pivots,
        children: right_children,
    }));
    InsertResult::Split(left as *const Node, pivot, right as *const Node)
}

/// Result of a path-copying removal below some node.
enum RemoveResult {
    /// Key absent: nothing was copied or retired.
    NotFound,
    /// The subtree was replaced (`None` = it became empty).
    Replaced(Option<*const Node>),
}

/// Path-copying removal.
///
/// # Safety
///
/// Same generation-liveness contract as [`insert_rec`].
unsafe fn remove_rec(node: *const Node, key: &[u8], retired: &mut Retired) -> RemoveResult {
    match &*node {
        Node::Leaf { keys, locs } => {
            let Ok(i) = keys.binary_search_by(|k| k.as_slice().cmp(key)) else {
                return RemoveResult::NotFound;
            };
            retired.push(node);
            if keys.len() == 1 {
                return RemoveResult::Replaced(None);
            }
            let mut keys = keys.clone();
            let mut locs = locs.clone();
            keys.remove(i);
            locs.remove(i);
            let leaf = Box::into_raw(Box::new(Node::Leaf { keys, locs }));
            RemoveResult::Replaced(Some(leaf as *const Node))
        }
        Node::Internal { pivots, children } => {
            let idx = Node::child_index(pivots, key);
            match remove_rec(children[idx], key, retired) {
                RemoveResult::NotFound => RemoveResult::NotFound,
                RemoveResult::Replaced(new_child) => {
                    retired.push(node);
                    let mut pivots = pivots.clone();
                    let mut children = children.clone();
                    match new_child {
                        Some(c) => children[idx] = c,
                        None => {
                            // The child emptied out: drop it (no sibling
                            // rebalancing — the pivot bounds stay valid as
                            // slack lower bounds).
                            pivots.remove(idx);
                            children.remove(idx);
                        }
                    }
                    if children.is_empty() {
                        return RemoveResult::Replaced(None);
                    }
                    let n = Box::into_raw(Box::new(Node::Internal { pivots, children }));
                    RemoveResult::Replaced(Some(n as *const Node))
                }
            }
        }
    }
}

/// Point lookup within one generation.
///
/// # Safety
///
/// Same generation-liveness contract as [`insert_rec`].
unsafe fn lookup(node: *const Node, key: &[u8]) -> Option<PackedLoc> {
    match &*node {
        Node::Leaf { keys, locs } => keys
            .binary_search_by(|k| k.as_slice().cmp(key))
            .ok()
            .map(|i| locs[i]),
        Node::Internal { pivots, children } => {
            lookup(children[Node::child_index(pivots, key)], key)
        }
    }
}

/// Smallest key in a subtree.
///
/// # Safety
///
/// Same generation-liveness contract as [`insert_rec`].
unsafe fn subtree_min(node: *const Node) -> Vec<u8> {
    match &*node {
        Node::Leaf { keys, .. } => keys[0].clone(),
        Node::Internal { children, .. } => subtree_min(children[0]),
    }
}

/// Recursively free a generation (exclusive access only).
///
/// # Safety
///
/// Caller must have exclusive access to the whole tree.
unsafe fn drop_rec(node: *const Node) {
    let boxed = Box::from_raw(node as *mut Node);
    if let Node::Internal { children, .. } = &*boxed {
        for &c in children {
            drop_rec(c);
        }
    }
}

/// Collect every node of the subtree rooted at `node` into `retired`, for
/// whole-tree retirement by [`OrderedIndex::clear`].
///
/// # Safety
///
/// `node` must belong to the current generation and the caller must hold
/// the write lock (so no node is retired concurrently).
unsafe fn collect_rec(node: *const Node, retired: &mut Retired) {
    if let Node::Internal { children, .. } = &*node {
        for &c in children {
            collect_rec(c, retired);
        }
    }
    retired.push(node);
}

/// The recursive invariant walker behind [`OrderedIndex::check_tree`].
///
/// # Safety
///
/// Same generation-liveness contract as [`insert_rec`].
#[allow(clippy::too_many_arguments)]
unsafe fn check_rec(
    node: *const Node,
    lower: Option<&[u8]>,
    upper: Option<&[u8]>,
    depth: u64,
    stats: &mut TreeStats,
    last_key: &mut Option<Vec<u8>>,
    leaf_depth: &mut Option<u64>,
    validate: &LocValidator,
) -> Result<(), String> {
    let n = &*node;
    if n.len() == 0 {
        return Err(format!("empty node at depth {depth}"));
    }
    if n.len() > MAX_NODE_KEYS {
        return Err(format!(
            "node occupancy {} exceeds {MAX_NODE_KEYS} at depth {depth}",
            n.len()
        ));
    }
    match n {
        Node::Leaf { keys, locs } => {
            stats.leaves += 1;
            stats.depth = stats.depth.max(depth);
            match leaf_depth {
                Some(d) if *d != depth => {
                    return Err(format!(
                        "leaf depth {depth} differs from first leaf depth {d}"
                    ));
                }
                Some(_) => {}
                None => *leaf_depth = Some(depth),
            }
            if keys.len() != locs.len() {
                return Err(format!(
                    "leaf has {} keys but {} locations",
                    keys.len(),
                    locs.len()
                ));
            }
            for (key, &loc) in keys.iter().zip(locs) {
                if let Some(lo) = lower {
                    if key.as_slice() < lo {
                        return Err(format!("key {key:?} below its pivot lower bound"));
                    }
                }
                if let Some(hi) = upper {
                    if key.as_slice() >= hi {
                        return Err(format!("key {key:?} at or above its pivot upper bound"));
                    }
                }
                // The leaf chain: keys strictly increase across the whole
                // tree in traversal order.
                if let Some(last) = last_key {
                    if key <= last {
                        return Err(format!(
                            "leaf chain not strictly increasing: {last:?} then {key:?}"
                        ));
                    }
                }
                *last_key = Some(key.clone());
                validate(key, loc)?;
                stats.keys += 1;
            }
            Ok(())
        }
        Node::Internal { pivots, children } => {
            stats.internal_nodes += 1;
            if pivots.len() != children.len() {
                return Err(format!(
                    "internal node has {} pivots but {} children",
                    pivots.len(),
                    children.len()
                ));
            }
            for w in pivots.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!(
                        "pivots not strictly increasing: {:?} then {:?}",
                        w[0], w[1]
                    ));
                }
            }
            if let Some(lo) = lower {
                if pivots[0].as_slice() < lo {
                    return Err(format!(
                        "first pivot {:?} below the parent lower bound",
                        pivots[0]
                    ));
                }
            }
            for (i, &child) in children.iter().enumerate() {
                let hi = pivots.get(i + 1).map(Vec::as_slice).or(upper);
                check_rec(
                    child,
                    Some(&pivots[i]),
                    hi,
                    depth + 1,
                    stats,
                    last_key,
                    leaf_depth,
                    validate,
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinomo_pclht::pin;
    use dinomo_pmem::PmAddr;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn loc(v: u64) -> PackedLoc {
        PackedLoc::direct(PmAddr(v * 64), 64)
    }

    fn ok_loc(_k: &[u8], _l: PackedLoc) -> Result<(), String> {
        Ok(())
    }

    fn collect_from(index: &OrderedIndex, start: &[u8]) -> Vec<(Vec<u8>, PackedLoc)> {
        let guard = pin();
        index.snapshot(&guard).range_from(start).collect()
    }

    #[test]
    fn empty_tree_scans_and_checks() {
        let index = OrderedIndex::new();
        assert!(index.is_empty());
        assert!(collect_from(&index, b"").is_empty());
        let stats = index.check_tree(&ok_loc).unwrap();
        assert_eq!(stats, TreeStats::default());
        let guard = pin();
        assert!(!index.remove(&guard, b"missing"));
        assert!(!index.relocate(&guard, b"missing", loc(1), loc(2)));
    }

    #[test]
    fn inserts_splits_and_ordered_iteration() {
        let index = OrderedIndex::new();
        let guard = pin();
        // Insert in a scrambled order, enough to force multi-level splits.
        let mut ids: Vec<u64> = (0..200).collect();
        for i in 0..ids.len() {
            ids.swap(i, (i * 7919 + 13) % 200);
        }
        for &id in &ids {
            index.upsert(&guard, format!("k{id:04}").as_bytes(), loc(id));
        }
        assert_eq!(index.len(), 200);
        let stats = index.check_tree(&ok_loc).unwrap();
        assert_eq!(stats.keys, 200);
        assert!(stats.depth >= 3, "200 keys over fanout-8 nodes: {stats:?}");
        let all = collect_from(&index, b"");
        assert_eq!(all.len(), 200);
        for (i, (key, l)) in all.iter().enumerate() {
            assert_eq!(key, format!("k{i:04}").as_bytes());
            assert_eq!(*l, loc(i as u64));
        }
        // range_from starts at the smallest key >= start.
        let tail = collect_from(&index, b"k0190");
        assert_eq!(tail.len(), 10);
        assert_eq!(tail[0].0, b"k0190");
        let mid = collect_from(&index, b"k0100x");
        assert_eq!(mid[0].0, b"k0101");
        assert!(collect_from(&index, b"k9999").is_empty());
    }

    #[test]
    fn upsert_replaces_and_relocate_is_conditional() {
        let index = OrderedIndex::new();
        let guard = pin();
        index.upsert(&guard, b"a", loc(1));
        index.upsert(&guard, b"a", loc(2));
        assert_eq!(index.len(), 1);
        assert_eq!(index.get(&guard, b"a"), Some(loc(2)));
        // Wrong old location: refused.
        assert!(!index.relocate(&guard, b"a", loc(1), loc(9)));
        assert_eq!(index.get(&guard, b"a"), Some(loc(2)));
        // Matching old location: swung.
        assert!(index.relocate(&guard, b"a", loc(2), loc(3)));
        assert_eq!(index.get(&guard, b"a"), Some(loc(3)));
        index.check_tree(&ok_loc).unwrap();
    }

    #[test]
    fn removes_shrink_and_collapse_the_tree() {
        let index = OrderedIndex::new();
        let guard = pin();
        for id in 0..100u64 {
            index.upsert(&guard, format!("k{id:04}").as_bytes(), loc(id));
        }
        for id in (0..100u64).filter(|id| id % 3 != 0) {
            assert!(index.remove(&guard, format!("k{id:04}").as_bytes()));
        }
        assert!(!index.remove(&guard, b"k0001"), "double remove");
        let survivors = collect_from(&index, b"");
        assert_eq!(survivors.len(), 34);
        assert!(survivors
            .iter()
            .enumerate()
            .all(|(i, (k, _))| k == format!("k{:04}", i * 3).as_bytes()));
        index.check_tree(&ok_loc).unwrap();
        for id in (0..100u64).filter(|id| id % 3 == 0) {
            assert!(index.remove(&guard, format!("k{id:04}").as_bytes()));
        }
        assert!(index.is_empty());
        assert_eq!(index.check_tree(&ok_loc).unwrap(), TreeStats::default());
    }

    #[test]
    fn check_tree_reports_dangling_locations() {
        let index = OrderedIndex::new();
        let guard = pin();
        index.upsert(&guard, b"good", loc(1));
        index.upsert(&guard, b"bad", loc(666));
        let err = index
            .check_tree(&|key, l| {
                if l == loc(666) {
                    Err(format!("dangling location for {key:?}"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert!(err.contains("dangling"), "{err}");
    }

    #[test]
    fn pinned_readers_keep_observing_their_generation() {
        let index = Arc::new(OrderedIndex::new());
        {
            let guard = pin();
            for id in 0..50u64 {
                index.upsert(&guard, format!("k{id:04}").as_bytes(), loc(id));
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = pin();
                    for id in 0..50u64 {
                        index.upsert(
                            &guard,
                            format!("k{id:04}").as_bytes(),
                            loc(1000 + round * 50 + id),
                        );
                    }
                    index.remove(&guard, format!("k{:04}", round % 50).as_bytes());
                    round += 1;
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let index = Arc::clone(&index);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scans = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = pin();
                        let snap = index.snapshot(&guard);
                        // A generation is internally consistent however
                        // many rewrites race it: sorted, unique keys.
                        let mut last: Option<Vec<u8>> = None;
                        for (key, _) in snap.range_from(b"") {
                            if let Some(prev) = &last {
                                assert!(key > *prev, "unsorted scan: {prev:?} then {key:?}");
                            }
                            last = Some(key);
                        }
                        scans += 1;
                    }
                    scans
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(200));
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        index.check_tree(&ok_loc).unwrap();
    }

    // ---- the satellite property test: random insert/remove/relocate
    // sequences against a BTreeMap model, invariants checked throughout.

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn random_mutation_sequences_match_a_btreemap_model(ops in proptest::collection::vec((0u8..4, 0u16..64, 0u64..1_000), 1..400)) {
            let index = OrderedIndex::new();
            let mut model: BTreeMap<Vec<u8>, PackedLoc> = BTreeMap::new();
            let guard = pin();
            for (kind, key_id, loc_id) in ops {
                let key = format!("k{key_id:04}").into_bytes();
                match kind {
                    0 | 1 => {
                        index.upsert(&guard, &key, loc(loc_id));
                        model.insert(key, loc(loc_id));
                    }
                    2 => {
                        let expected = model.remove(&key).is_some();
                        proptest::prop_assert_eq!(index.remove(&guard, &key), expected);
                    }
                    _ => {
                        // Relocate conditionally on the model's view — the
                        // swing must succeed exactly when the old location
                        // matches.
                        let old = model.get(&key).copied();
                        let swung = index.relocate(&guard, &key, loc(loc_id), loc(loc_id + 1));
                        proptest::prop_assert_eq!(swung, old == Some(loc(loc_id)));
                        if swung {
                            model.insert(key, loc(loc_id + 1));
                        }
                    }
                }
                let stats = index.check_tree(&ok_loc)?;
                proptest::prop_assert_eq!(stats.keys as usize, model.len());
            }
            let walked: Vec<(Vec<u8>, PackedLoc)> = {
                let g = pin();
                index.snapshot(&g).range_from(b"").collect()
            };
            let expected: Vec<(Vec<u8>, PackedLoc)> =
                model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            proptest::prop_assert_eq!(walked, expected);
            // Suffix scans agree with the model's range view.
            let start = b"k0020".to_vec();
            let walked_tail: Vec<Vec<u8>> = {
                let g = pin();
                index.snapshot(&g).range_from(&start).map(|(k, _)| k).collect()
            };
            let expected_tail: Vec<Vec<u8>> =
                model.range(start..).map(|(k, _)| k.clone()).collect();
            proptest::prop_assert_eq!(walked_tail, expected_tail);
        }
    }
}
