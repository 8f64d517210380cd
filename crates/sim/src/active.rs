//! Active-set scheduling: a dense bitset of "components with work to do".
//!
//! Polling every router, link and NIC every cycle wastes most of the work
//! at low-to-moderate load, where the vast majority of components are
//! idle. An [`ActiveSet`] tracks exactly the components that can make
//! progress; the engine drains the set each cycle, steps only those
//! members, and re-inserts the ones that still have work. Iteration is
//! always in ascending index order, so replacing a `0..n` polling loop
//! with an active set preserves event order — and therefore bit-identical
//! simulation results.

/// A fixed-capacity set of `usize` indices backed by a bitset.
#[derive(Debug, Clone)]
pub struct ActiveSet {
    words: Vec<u64>,
    len: usize,
}

impl ActiveSet {
    /// Creates an empty set over the index range `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// The index range this set covers.
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Members currently in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `i`; inserting a member twice is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn insert(&mut self, i: usize) {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.len += 1;
        }
    }

    /// Removes `i`; removing a non-member is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn remove(&mut self, i: usize) {
        let word = &mut self.words[i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.len -= 1;
        }
    }

    /// The smallest member `>= from`, if any. It reads the set as it is
    /// now, so a scan that advances `from` past each visited member also
    /// visits members inserted above it along the way.
    pub fn next_from(&self, from: usize) -> Option<usize> {
        let mut wi = from / 64;
        let mut w = self.words.get(wi)? & (!0u64 << (from % 64));
        loop {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            wi += 1;
            w = *self.words.get(wi)?;
        }
    }

    /// Whether `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    /// Removes every member, leaving the set empty.
    ///
    /// Used when overlaying a checkpoint: the restore path clears the
    /// freshly built sets and re-inserts the saved membership so the
    /// next cycle's schedule matches the saved run exactly.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates members in ascending order without modifying the set
    /// (the engine's next-event bound walks active media this way).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Appends every member to `out` in ascending order without
    /// modifying the set. `out` is not cleared.
    ///
    /// The bitset representation is canonical (membership alone
    /// determines the words), so this is also the checkpoint encoding
    /// of the set.
    pub fn members_into(&self, out: &mut Vec<usize>) {
        for (wi, word) in self.words.iter().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Moves every member into `out` in ascending order, leaving the set
    /// empty. `out` is cleared first.
    ///
    /// The drain-then-reinsert pattern lets a stage activate members for
    /// the *next* cycle while iterating the current one without the two
    /// generations mixing.
    pub fn drain_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        if self.len == 0 {
            return;
        }
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
            *word = 0;
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = ActiveSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
    }

    #[test]
    fn double_insert_is_idempotent() {
        let mut s = ActiveSet::new(10);
        s.insert(5);
        s.insert(5);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn drain_is_ascending_and_empties() {
        let mut s = ActiveSet::new(200);
        for i in [199, 3, 64, 0, 127, 65] {
            s.insert(i);
        }
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert_eq!(out, vec![0, 3, 64, 65, 127, 199]);
        assert!(s.is_empty());
        // A second drain yields nothing.
        s.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn iter_matches_members_into() {
        let mut s = ActiveSet::new(200);
        for i in [199, 3, 64, 0, 127, 65] {
            s.insert(i);
        }
        let mut out = Vec::new();
        s.members_into(&mut out);
        let via_iter: Vec<usize> = s.iter().collect();
        assert_eq!(via_iter, out);
        assert_eq!(s.len(), 6, "iteration does not consume");
    }

    #[test]
    fn reinsert_after_drain() {
        let mut s = ActiveSet::new(64);
        s.insert(7);
        let mut out = Vec::new();
        s.drain_into(&mut out);
        s.insert(7);
        s.insert(2);
        s.drain_into(&mut out);
        assert_eq!(out, vec![2, 7]);
    }

    #[test]
    fn remove_and_next_from_walk_a_live_set() {
        let mut s = ActiveSet::new(200);
        for i in [3, 64, 130] {
            s.insert(i);
        }
        s.remove(64);
        s.remove(64);
        assert_eq!(s.len(), 2);
        assert_eq!(s.next_from(0), Some(3));
        assert_eq!(s.next_from(4), Some(130));
        // A member inserted above the cursor is seen by the next step.
        s.insert(100);
        assert_eq!(s.next_from(4), Some(100));
        assert_eq!(s.next_from(131), None);
        assert_eq!(s.next_from(500), None);
    }

    #[test]
    fn zero_capacity_set_is_usable() {
        let mut s = ActiveSet::new(0);
        assert!(s.is_empty());
        assert!(!s.contains(0));
        let mut out = vec![1, 2];
        s.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_insert_panics() {
        ActiveSet::new(64).insert(64);
    }
}
