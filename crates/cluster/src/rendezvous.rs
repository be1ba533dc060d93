//! N-party rendezvous: the building block for barriers and collectives.
//!
//! All members of a communicator call [`Rendezvous::exchange`] with their
//! member index, their current virtual clock, and a contribution. The last
//! arriver combines all contributions (in member order, so floating-point
//! reductions are deterministic) and publishes the result together with the
//! maximum member clock; everyone leaves with both.
//!
//! This is how virtual time composes at synchronization points: every member
//! resumes at `max(member clocks) + collective cost`, the conservative rule
//! for barrier semantics.

use std::sync::Arc;

use megammap_sim::SimTime;
use parking_lot::{Condvar, Mutex};

/// Outcome of an exchange: the combined value plus the clock agreement.
pub struct Exchanged<R> {
    /// The combined result, shared by all members.
    pub result: Arc<R>,
    /// Maximum virtual clock among members at entry.
    pub max_clock: SimTime,
}

impl<R> Clone for Exchanged<R> {
    fn clone(&self) -> Self {
        Self { result: self.result.clone(), max_clock: self.max_clock }
    }
}

struct State<T, R> {
    generation: u64,
    arrived: usize,
    max_clock: SimTime,
    slots: Vec<Option<T>>,
    published: Option<Exchanged<R>>,
}

/// A reusable rendezvous for `n` members exchanging `T`s for a combined `R`.
pub struct Rendezvous<T, R> {
    n: usize,
    state: Mutex<State<T, R>>,
    cv: Condvar,
}

impl<T: Send, R: Send + Sync> Rendezvous<T, R> {
    /// Create a rendezvous for `n` members.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "rendezvous needs at least one member");
        Self {
            n,
            state: Mutex::new(State {
                generation: 0,
                arrived: 0,
                max_clock: 0,
                slots: (0..n).map(|_| None).collect(),
                published: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Member count.
    pub fn members(&self) -> usize {
        self.n
    }

    /// Exchange: deposit `value` as member `idx` at virtual time `clock`;
    /// block until all `n` members arrive; return the combined result.
    ///
    /// `combine` runs exactly once per round, in the last arriver, over the
    /// contributions **in member order**. All members must pass an
    /// equivalent `combine` (SPMD discipline, like MPI op arguments).
    pub fn exchange<F>(&self, idx: usize, clock: SimTime, value: T, combine: F) -> Exchanged<R>
    where
        F: FnOnce(Vec<T>) -> R,
    {
        assert!(idx < self.n, "member index {idx} out of range {}", self.n);
        let mut st = self.state.lock();
        let my_gen = st.generation;
        assert!(st.slots[idx].is_none(), "member {idx} exchanged twice in one round");
        st.slots[idx] = Some(value);
        st.arrived += 1;
        st.max_clock = st.max_clock.max(clock);
        if st.arrived == self.n {
            // Last arriver: combine in member order and publish.
            let vals: Vec<T> =
                st.slots.iter_mut().map(|s| s.take().expect("all slots filled")).collect();
            let result = Exchanged { result: Arc::new(combine(vals)), max_clock: st.max_clock };
            st.published = Some(result.clone());
            st.generation += 1;
            st.arrived = 0;
            st.max_clock = 0;
            self.cv.notify_all();
            result
        } else {
            while st.generation == my_gen {
                self.cv.wait(&mut st);
            }
            st.published.as_ref().expect("published by last arriver").clone()
        }
    }
}

/// Highest-random-weight (rendezvous) hashing: deterministically assign
/// `key` to one of `candidates` such that removing a candidate only moves
/// the keys that were assigned *to it* — the minimal-movement property the
/// runtime relies on for page re-homing when a node crashes.
///
/// Every (key, candidate) pair gets a pseudo-random weight from the
/// SplitMix64 finalizer; the candidate with the highest weight wins. Ties
/// are impossible in practice (64-bit weights) but break toward the lower
/// candidate id for full determinism. Returns `None` iff `candidates` is
/// empty.
pub fn rendezvous_hash(key: u64, candidates: impl IntoIterator<Item = usize>) -> Option<usize> {
    let mut best: Option<(u64, usize)> = None;
    for c in candidates {
        let w = megammap_sim::fault::mix64(key ^ (c as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        let better = match best {
            None => true,
            Some((bw, bc)) => w > bw || (w == bw && c < bc),
        };
        if better {
            best = Some((w, c));
        }
    }
    best.map(|(_, c)| c)
}

#[cfg(test)]
mod proptests {
    use super::rendezvous_hash;
    use proptest::prelude::*;

    proptest! {
        /// Removing one node moves exactly the keys it owned (to survivors)
        /// and leaves every other key's assignment untouched.
        #[test]
        fn rehoming_moves_only_the_crashed_nodes_keys(
            keys in proptest::collection::vec(any::<u64>(), 1..200),
            nodes in 2usize..9,
            crashed in 0usize..9,
        ) {
            let crashed = crashed % nodes;
            let all: Vec<usize> = (0..nodes).collect();
            let survivors: Vec<usize> = all.iter().copied().filter(|&n| n != crashed).collect();
            for key in keys {
                let before = rendezvous_hash(key, all.iter().copied()).expect("nonempty");
                let after = rendezvous_hash(key, survivors.iter().copied()).expect("nonempty");
                if before == crashed {
                    prop_assert!(after != crashed, "key must leave the crashed node");
                } else {
                    prop_assert_eq!(after, before, "survivor-homed keys must not move");
                }
            }
        }

        /// The assignment is independent of candidate order (no positional
        /// bias), so any layer can pass its own view of the live set.
        #[test]
        fn order_independent(key in any::<u64>(), nodes in 1usize..9) {
            let fwd: Vec<usize> = (0..nodes).collect();
            let rev: Vec<usize> = (0..nodes).rev().collect();
            prop_assert_eq!(rendezvous_hash(key, fwd.iter().copied()), rendezvous_hash(key, rev.iter().copied()));
        }

        /// Keys spread across candidates (no degenerate constant mapping).
        #[test]
        fn spreads_load(seed in any::<u64>()) {
            let all: Vec<usize> = (0..4).collect();
            let mut counts = [0usize; 4];
            for i in 0..256u64 {
                let k = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                counts[rendezvous_hash(k, all.iter().copied()).unwrap()] += 1;
            }
            for (n, &c) in counts.iter().enumerate() {
                prop_assert!(c > 16, "node {} starved: {:?}", n, counts);
            }
        }
    }

    #[test]
    fn empty_candidates_is_none() {
        assert_eq!(rendezvous_hash(42, []), None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_member_is_immediate() {
        let r: Rendezvous<u32, u32> = Rendezvous::new(1);
        let out = r.exchange(0, 42, 7, |v| v[0] * 2);
        assert_eq!(*out.result, 14);
        assert_eq!(out.max_clock, 42);
    }

    #[test]
    fn combines_in_member_order_and_takes_max_clock() {
        let r: Arc<Rendezvous<usize, Vec<usize>>> = Arc::new(Rendezvous::new(4));
        let mut handles = vec![];
        for i in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                // Member i contributes i*10 with clock i*100.
                r.exchange(i, (i as u64) * 100, i * 10, |v| v)
            }));
        }
        for h in handles {
            let out = h.join().unwrap();
            assert_eq!(*out.result, vec![0, 10, 20, 30], "member order preserved");
            assert_eq!(out.max_clock, 300);
        }
    }

    #[test]
    fn reusable_across_generations() {
        let r: Arc<Rendezvous<u64, u64>> = Arc::new(Rendezvous::new(2));
        for round in 0..50u64 {
            let r1 = r.clone();
            let h = std::thread::spawn(move || r1.exchange(1, round, round, |v| v.iter().sum()));
            let a = r.exchange(0, round, round, |v| v.iter().sum());
            let b = h.join().unwrap();
            assert_eq!(*a.result, 2 * round);
            assert_eq!(*b.result, 2 * round);
        }
    }

    #[test]
    #[should_panic(expected = "exchanged twice")]
    fn double_exchange_in_round_panics() {
        let r: Rendezvous<u32, u32> = Rendezvous::new(2);
        // First deposit parks the slot; a second deposit by the same member
        // in the same round is a protocol violation.
        let state = &r.state;
        {
            let mut st = state.lock();
            st.slots[0] = Some(1);
            st.arrived = 1;
        }
        r.exchange(0, 0, 2, |v| v[0]);
    }
}
