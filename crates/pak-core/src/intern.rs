//! Interning of global states and agent-local states.
//!
//! An unfolded system visits the same global state over and over: successor
//! merging, environment branching that lands on identical states, and
//! models whose transition tables copy the state all produce tree nodes
//! that *share* a `Global`. Storing the state by value in every node (and
//! cloning it into the frontier, the builder, and each analysis) made
//! state cloning a measurable share of unfolding cost.
//!
//! [`StatePool`] is an append-only arena keyed by hash: each distinct
//! state is stored exactly once and identified by a copyable
//! [`StateId`] — a plain dense index, only meaningful for the pool that
//! issued it. Deduplication uses the same scheme as the
//! unfolder's successor merge — an [`FxHasher`] probe
//! into hash buckets with candidate confirmation by `Eq` — so the pool
//! inherits the merge contract: **equal states must hash equal**. A
//! coarser or finer `Eq` changes only how many distinct ids exist, never
//! the states an id resolves to.
//!
//! [`LocalPool`] applies the same treatment one level down: the pps build
//! pass interns each distinct state's *local projection* per agent, so
//! information-set cells are keyed by copyable
//! [`LocalId`]s instead of cloned `G::Local` values.
//!
//! # Examples
//!
//! ```
//! use pak_core::intern::StatePool;
//! use pak_core::state::SimpleState;
//!
//! let mut pool = StatePool::new();
//! let a = pool.intern(SimpleState::new(0, vec![1, 2]));
//! let b = pool.intern(SimpleState::new(0, vec![1, 2])); // duplicate
//! let c = pool.intern(SimpleState::new(9, vec![1, 2]));
//!
//! assert_eq!(a, b, "equal states intern to the same id");
//! assert_ne!(a, c);
//! assert_eq!(pool.len(), 2, "the duplicate was not stored twice");
//! assert_eq!(pool[a].locals, vec![1, 2]);
//! ```

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Index;

use crate::hash::{FxBuildHasher, FxHasher};
use crate::ids::{LocalId, StateId};

/// The shared arena core behind [`StatePool`] and [`LocalPool`]: stores
/// each distinct value once, identified by a dense `u32` index. The
/// public pools wrap it with their respective id newtypes so state ids and
/// local ids cannot be confused at compile time.
#[derive(Debug, Clone)]
struct RawPool<T> {
    values: Vec<T>,
    /// Hash → candidate indices with that hash (almost always a single
    /// entry; collisions are resolved by `Eq` confirmation against
    /// `values`).
    index: HashMap<u64, Vec<u32>, FxBuildHasher>,
}

impl<T> Default for RawPool<T> {
    fn default() -> Self {
        RawPool {
            values: Vec::new(),
            index: HashMap::default(),
        }
    }
}

impl<T: Eq + Hash> RawPool<T> {
    fn intern(&mut self, value: T) -> u32 {
        match self.lookup(&value) {
            Some(i) => i,
            None => self.insert_new(value),
        }
    }

    /// Appends a value known to be absent (misses re-hash once; interning
    /// is dominated by hits, where a single probe suffices).
    fn insert_new(&mut self, value: T) -> u32 {
        let hash = Self::hash_of(&value);
        let id = u32::try_from(self.values.len()).expect("more than u32::MAX interned values");
        self.index.entry(hash).or_default().push(id);
        self.values.push(value);
        id
    }

    fn lookup(&self, value: &T) -> Option<u32> {
        let hash = Self::hash_of(value);
        self.index
            .get(&hash)?
            .iter()
            .find(|&&i| self.values[i as usize] == *value)
            .copied()
    }

    fn hash_of(value: &T) -> u64 {
        let mut hasher = FxHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Drops every value with id `>= len`, unwinding the pool to a prefix.
    ///
    /// Ids are handed out densely, so truncating to a past length restores
    /// the pool to exactly the state it had then: surviving ids keep their
    /// values, dropped ids are removed from the hash index so the values
    /// can be re-interned later (possibly under different ids). Cost is
    /// `O(dropped)` — one re-hash per dropped value.
    fn truncate(&mut self, len: usize) {
        for id in len..self.values.len() {
            let hash = Self::hash_of(&self.values[id]);
            if let Some(bucket) = self.index.get_mut(&hash) {
                bucket.retain(|&i| (i as usize) < len);
                if bucket.is_empty() {
                    self.index.remove(&hash);
                }
            }
        }
        self.values.truncate(len);
    }
}

/// An arena that stores each distinct value once and hands out copyable
/// [`StateId`] handles.
///
/// The pool is append-only: ids are dense (`0..len`) and stay valid for
/// the pool's lifetime. Lookup by id is a plain slice index; interning is
/// one hash and, on a repeat, one `Eq` confirmation — no allocation.
#[derive(Debug, Clone)]
pub struct StatePool<G> {
    raw: RawPool<G>,
}

impl<G> Default for StatePool<G> {
    fn default() -> Self {
        StatePool {
            raw: RawPool::default(),
        }
    }
}

impl<G: Eq + Hash> StatePool<G> {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        StatePool {
            raw: RawPool::default(),
        }
    }

    /// The number of *distinct* states interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.values.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.values.is_empty()
    }

    /// Interns `state`, returning the id of the stored copy.
    ///
    /// If an equal state is already present its id is returned and `state`
    /// is dropped; otherwise `state` is moved into the pool. Either way no
    /// clone is made.
    pub fn intern(&mut self, state: G) -> StateId {
        StateId(self.raw.intern(state))
    }

    /// Interns by reference, cloning `state` only when it is not already
    /// present.
    pub fn intern_ref(&mut self, state: &G) -> StateId
    where
        G: Clone,
    {
        match self.raw.lookup(state) {
            Some(i) => StateId(i),
            None => StateId(self.raw.insert_new(state.clone())),
        }
    }

    /// The id of an equal state already in the pool, if any, without
    /// inserting.
    #[must_use]
    pub fn lookup(&self, state: &G) -> Option<StateId> {
        self.raw.lookup(state).map(StateId)
    }

    /// Resolves an id to the stored state.
    ///
    /// Returns `None` for ids outside the pool (e.g. from another pool).
    #[must_use]
    pub fn get(&self, id: StateId) -> Option<&G> {
        self.raw.values.get(id.index())
    }

    /// Iterates over `(id, state)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, &G)> {
        self.raw
            .values
            .iter()
            .enumerate()
            .map(|(i, s)| (StateId(i as u32), s))
    }

    /// Drops every state with id `>= len`, unwinding the pool to a prefix
    /// of its interning order.
    ///
    /// This is the rollback hook for aborted horizon extensions: states
    /// interned for a level that fails validation are removed so the pool
    /// matches the retained tree again. Surviving ids are untouched.
    pub fn truncate(&mut self, len: usize) {
        self.raw.truncate(len);
    }
}

impl<G: Eq + Hash> Index<StateId> for StatePool<G> {
    type Output = G;

    /// Resolves an id to the stored state.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    fn index(&self, id: StateId) -> &G {
        &self.raw.values[id.index()]
    }
}

/// An arena of distinct agent-local states, handing out copyable
/// [`LocalId`] handles.
///
/// The pps build pass keeps one `LocalPool` per agent: every *distinct*
/// global state is projected onto the agent's local data exactly once, so
/// bucketing tree nodes into information-set cells compares two `u32`s per
/// node instead of cloning and hashing a `G::Local`. Same arena scheme as
/// [`StatePool`] (dense ids, hash probe with `Eq` confirmation), same
/// contract: equal locals must hash equal.
///
/// # Examples
///
/// ```
/// use pak_core::intern::LocalPool;
///
/// let mut pool = LocalPool::new();
/// let a = pool.intern(7u64);
/// let b = pool.intern(7u64); // duplicate
/// assert_eq!(a, b);
/// assert_eq!(pool.len(), 1);
/// assert_eq!(pool[a], 7);
/// ```
#[derive(Debug, Clone)]
pub struct LocalPool<L> {
    raw: RawPool<L>,
}

impl<L> Default for LocalPool<L> {
    fn default() -> Self {
        LocalPool {
            raw: RawPool::default(),
        }
    }
}

impl<L: Eq + Hash> LocalPool<L> {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        LocalPool {
            raw: RawPool::default(),
        }
    }

    /// The number of *distinct* locals interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.values.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.values.is_empty()
    }

    /// Interns `local`, returning the id of the stored copy (see
    /// [`StatePool::intern`]).
    pub fn intern(&mut self, local: L) -> LocalId {
        LocalId(self.raw.intern(local))
    }

    /// The id of an equal local already in the pool, if any, without
    /// inserting.
    #[must_use]
    pub fn lookup(&self, local: &L) -> Option<LocalId> {
        self.raw.lookup(local).map(LocalId)
    }

    /// Resolves an id to the stored local.
    ///
    /// Returns `None` for ids outside the pool (e.g. from another pool).
    #[must_use]
    pub fn get(&self, id: LocalId) -> Option<&L> {
        self.raw.values.get(id.index())
    }

    /// Iterates over `(id, local)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (LocalId, &L)> {
        self.raw
            .values
            .iter()
            .enumerate()
            .map(|(i, l)| (LocalId(i as u32), l))
    }
}

impl<L: Eq + Hash> Index<LocalId> for LocalPool<L> {
    type Output = L;

    /// Resolves an id to the stored local.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    fn index(&self, id: LocalId) -> &L {
        &self.raw.values[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SimpleState;

    #[test]
    fn interning_dedups_equal_states() {
        let mut pool = StatePool::new();
        let ids: Vec<StateId> = (0..10)
            .map(|k| pool.intern(SimpleState::new(k % 3, vec![k % 2])))
            .collect();
        // 3 envs × 2 locals = 6 distinct states.
        assert_eq!(pool.len(), 6);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(pool[id], SimpleState::new(k as u64 % 3, vec![k as u64 % 2]));
        }
    }

    #[test]
    fn ids_are_dense_and_in_first_seen_order() {
        let mut pool = StatePool::new();
        let a = pool.intern(SimpleState::new(1, vec![]));
        let b = pool.intern(SimpleState::new(2, vec![]));
        let a2 = pool.intern(SimpleState::new(1, vec![]));
        assert_eq!(a, StateId(0));
        assert_eq!(b, StateId(1));
        assert_eq!(a2, a);
        let collected: Vec<u64> = pool.iter().map(|(_, s)| s.env).collect();
        assert_eq!(collected, vec![1, 2]);
    }

    #[test]
    fn intern_ref_clones_only_on_miss() {
        let mut pool = StatePool::new();
        let s = SimpleState::new(0, vec![7]);
        let a = pool.intern_ref(&s);
        let b = pool.intern_ref(&s);
        assert_eq!(a, b);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut pool = StatePool::new();
        let s = SimpleState::new(0, vec![]);
        assert_eq!(pool.lookup(&s), None);
        let id = pool.intern(s.clone());
        assert_eq!(pool.lookup(&s), Some(id));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn get_is_total_over_foreign_ids() {
        let mut pool = StatePool::new();
        pool.intern(SimpleState::new(0, vec![]));
        assert!(pool.get(StateId(0)).is_some());
        assert!(pool.get(StateId(99)).is_none());
    }

    #[test]
    fn local_pool_dedups_and_resolves() {
        let mut pool: LocalPool<u64> = LocalPool::new();
        assert!(pool.is_empty());
        let ids: Vec<LocalId> = (0..12).map(|k| pool.intern(k % 4)).collect();
        assert_eq!(pool.len(), 4);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(pool[id], k as u64 % 4);
        }
        assert_eq!(pool.lookup(&2), Some(ids[2]));
        assert_eq!(pool.lookup(&99), None);
        assert_eq!(pool.get(LocalId(99)), None);
        let in_order: Vec<u64> = pool.iter().map(|(_, &l)| l).collect();
        assert_eq!(in_order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn truncate_unwinds_to_a_prefix() {
        let mut pool = StatePool::new();
        let a = pool.intern(SimpleState::new(1, vec![]));
        let b = pool.intern(SimpleState::new(2, vec![]));
        pool.intern(SimpleState::new(3, vec![]));
        pool.intern(SimpleState::new(4, vec![]));
        pool.truncate(2);
        assert_eq!(pool.len(), 2);
        // Surviving ids still resolve and dropped states really left the
        // index: re-interning hands out fresh dense ids again.
        assert_eq!(pool.lookup(&SimpleState::new(1, vec![])), Some(a));
        assert_eq!(pool.lookup(&SimpleState::new(3, vec![])), None);
        let c = pool.intern(SimpleState::new(4, vec![]));
        assert_eq!(c, StateId(2));
        assert_eq!(pool.intern(SimpleState::new(2, vec![])), b);
    }

    #[test]
    fn hash_collisions_are_resolved_by_eq() {
        // Force every key into one bucket by interning through a pool of
        // unit-hash wrappers: distinct values must still get distinct ids.
        #[derive(PartialEq, Eq, Clone, Debug)]
        struct Degenerate(u64);
        impl Hash for Degenerate {
            fn hash<H: Hasher>(&self, state: &mut H) {
                0u64.hash(state); // pathological: everything collides
            }
        }
        let mut pool = StatePool::new();
        let ids: Vec<StateId> = (0..32).map(|k| pool.intern(Degenerate(k))).collect();
        assert_eq!(pool.len(), 32);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(pool[id], Degenerate(k as u64));
            assert_eq!(pool.intern(Degenerate(k as u64)), id);
        }
    }
}
