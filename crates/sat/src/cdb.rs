//! The clause database: every clause in one flat arena.
//!
//! A clause is [`HEADER`] words followed by its literal codes
//! ([`Lit::code`]): its length, its learned flag together with its LBD,
//! and the two halves of its `f64` activity. A [`ClauseRef`] is the
//! offset of a clause's header, so watchers and reasons reach a
//! clause's literals with one index and no pointer chase. Clauses sit
//! in creation order; [`ClauseDb::compact`] keeps that order when it
//! drops clauses, so walking the arena visits clauses oldest first.

use crate::types::Lit;

/// A clause's position in the arena: the offset of its header.
pub(crate) type ClauseRef = u32;

/// The reference no clause has (a decision's reason, a dropped clause).
pub(crate) const NO_CLAUSE: ClauseRef = ClauseRef::MAX;

/// Header words: length, learned flag | LBD, activity low, activity high.
const HEADER: usize = 4;
const LEARNED: u32 = 1 << 31;

#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<u32>,
    originals: usize,
    learned: usize,
}

impl ClauseDb {
    /// Appends a clause of at least two literals, activity zero.
    pub(crate) fn push(&mut self, lits: &[Lit], learned: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2 && lbd < LEARNED);
        let c = ClauseRef::try_from(self.arena.len()).expect("clause arena exceeds u32 offsets");
        let flags = if learned { LEARNED | lbd } else { lbd };
        self.arena.extend([lits.len() as u32, flags, 0, 0]);
        self.arena.extend(lits.iter().map(|l| l.code() as u32));
        if learned {
            self.learned += 1;
        } else {
            self.originals += 1;
        }
        c
    }

    /// Number of original (non-learned) clauses.
    pub(crate) fn num_original(&self) -> usize {
        self.originals
    }

    /// Number of learned clauses.
    pub(crate) fn num_learned(&self) -> usize {
        self.learned
    }

    /// Every clause, oldest first.
    pub(crate) fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let c = at;
            at += HEADER + *self.arena.get(c)? as usize;
            Some(c as ClauseRef)
        })
    }

    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        self.arena[c as usize] as usize
    }

    /// Literal `k` of clause `c`.
    pub(crate) fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit::from_code(self.arena[c as usize + HEADER + k] as usize)
    }

    /// The literals of clause `c`.
    pub(crate) fn lits(&self, c: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let start = c as usize + HEADER;
        self.arena[start..start + self.len(c)]
            .iter()
            .map(|&code| Lit::from_code(code as usize))
    }

    /// The literal codes of clause `c`, for reordering in place.
    pub(crate) fn codes_mut(&mut self, c: ClauseRef) -> &mut [u32] {
        let start = c as usize + HEADER;
        let end = start + self.len(c);
        &mut self.arena[start..end]
    }

    pub(crate) fn is_learned(&self, c: ClauseRef) -> bool {
        self.arena[c as usize + 1] & LEARNED != 0
    }

    /// Literal block distance at learn time, lowered when a conflict
    /// finds it smaller; `0` for original clauses.
    pub(crate) fn lbd(&self, c: ClauseRef) -> u32 {
        self.arena[c as usize + 1] & !LEARNED
    }

    pub(crate) fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        debug_assert!(lbd < LEARNED);
        let flags = &mut self.arena[c as usize + 1];
        *flags = (*flags & LEARNED) | lbd;
    }

    pub(crate) fn activity(&self, c: ClauseRef) -> f64 {
        let c = c as usize;
        f64::from_bits(u64::from(self.arena[c + 2]) | u64::from(self.arena[c + 3]) << 32)
    }

    pub(crate) fn set_activity(&mut self, c: ClauseRef, activity: f64) {
        let bits = activity.to_bits();
        let c = c as usize;
        self.arena[c + 2] = bits as u32;
        self.arena[c + 3] = (bits >> 32) as u32;
    }

    /// Multiplies every learned clause's activity by `factor`.
    pub(crate) fn scale_learned_activity(&mut self, factor: f64) {
        let mut c = 0;
        while c < self.arena.len() {
            let r = c as ClauseRef;
            if self.is_learned(r) {
                self.set_activity(r, self.activity(r) * factor);
            }
            c += HEADER + self.arena[c] as usize;
        }
    }

    /// Drops every clause `keep` rejects and slides the rest down, in
    /// order. Returns the remap indexed by old reference: a kept
    /// clause's new reference, [`NO_CLAUSE`] for a dropped one (only
    /// header offsets are meaningful).
    pub(crate) fn compact(&mut self, keep: impl Fn(ClauseRef) -> bool) -> Vec<ClauseRef> {
        let mut remap = vec![NO_CLAUSE; self.arena.len()];
        let (mut read, mut write) = (0, 0);
        while read < self.arena.len() {
            let size = HEADER + self.arena[read] as usize;
            let c = read as ClauseRef;
            if keep(c) {
                remap[read] = write as ClauseRef;
                self.arena.copy_within(read..read + size, write);
                write += size;
            } else if self.is_learned(c) {
                self.learned -= 1;
            } else {
                self.originals -= 1;
            }
            read += size;
        }
        self.arena.truncate(write);
        remap
    }
}
