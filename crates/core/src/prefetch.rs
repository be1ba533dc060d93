//! The private-cache prefetcher — paper Algorithm 1.
//!
//! Whenever a transaction crosses into a new page (and at `TxBegin`), the
//! prefetcher runs:
//!
//! 1. **Evict** — pages already consumed (`Tx[Head, Tail)`) are scored 0 and
//!    evicted from the pcache, unless the pattern will retouch them soon
//!    (pages also appearing in the upcoming window keep score 1).
//! 2. **Prefetch** — the next pages that fit in the free pcache space are
//!    scored 1 and fetched asynchronously; pages beyond that receive a
//!    decaying score proportional to the time before a fault could occur,
//!    computed from the bandwidth of the tier each page currently sits on.
//!
//! The scores are also propagated to the Data Organizer (scache) so hot
//! pages are promoted toward fast tiers and placed near the scoring node.
//!
//! **Deviation note:** Algorithm 1 line 29 as printed reads
//! `Score = EstTime/BaseTime`, which grows without bound and would never
//! terminate the `while Score > MinScore` loop. The surrounding text says
//! scores *decay* with distance ("a score proportional to the minimum
//! amount of time before a page fault could occur"), so we implement
//! `Score = BaseTime/EstTime`, which matches the text and terminates.

use crate::tx::Transaction;

/// The environment Algorithm 1 manipulates: one vector's pcache plus the
/// score channel to the Data Organizer.
pub trait PrefetchEnv {
    /// `Vec.Max` — pcache capacity in bytes.
    fn cap(&self) -> u64;
    /// `Vec.Cur` — pcache bytes in use.
    fn cur(&self) -> u64;
    /// Bytes held by reclaimable pages (consumed or left over from earlier
    /// transactions); counted as free space for prefetching, since
    /// [`issue_prefetch`](Self::issue_prefetch) may evict them.
    fn reclaimable(&self) -> u64 {
        0
    }
    /// Page size in bytes.
    fn page_size(&self) -> u64;
    /// Total pages in the vector (bounds the scoring walk).
    fn num_pages(&self) -> u64;
    /// `Vec.NodeId` — the node issuing the scores.
    fn node_id(&self) -> usize;
    /// Bandwidth (bytes/s) of the tier currently holding `page`.
    fn tier_bandwidth(&self, page: u64) -> u64;
    /// Publish a score for `page` (sent to the Data Organizer).
    fn set_score(&mut self, page: u64, score: f64, node: usize);
    /// Evict `page` from the pcache (it was consumed and scored 0).
    fn evict(&mut self, page: u64);
    /// Whether `page` is already resident (or in flight) in the pcache.
    fn resident(&self, page: u64) -> bool;
    /// Issue asynchronous pcache fetches for the `count ≥ 1` contiguous
    /// score-1 pages starting at `first`, as one batched submission (the
    /// pcache amortizes the runtime crossing over the run).
    fn issue_prefetch(&mut self, first: u64, count: u64);
}

/// Run one prefetcher pass (paper Algorithm 1: `Prefetcher`).
pub fn run_prefetcher(env: &mut dyn PrefetchEnv, tx: &mut Transaction, min_score: f64) {
    evict(env, tx);
    prefetch(env, tx, min_score);
    tx.head = tx.tail;
}

/// `Evict(Vec, Tx)`: score consumed pages 0, upcoming-window pages 1, and
/// evict consumed pages whose final score is 0.
fn evict(env: &mut dyn PrefetchEnv, tx: &Transaction) {
    let page_size = env.page_size();
    let n_pages = (env.cap() / page_size).max(1);
    // Accesses per page bounds how many accesses to look at to see N pages.
    let window = n_pages * tx.elems_per_page().max(1);
    let touched = tx.distinct_pages(tx.head, tx.tail - tx.head);
    let upcoming = tx.distinct_pages(tx.tail, window);
    let upcoming_set: std::collections::HashSet<u64> =
        upcoming.iter().take(n_pages as usize).copied().collect();
    for &p in &touched {
        if upcoming_set.contains(&p) {
            // Retouch expected (random patterns): keep it hot.
            env.set_score(p, 1.0, env.node_id());
        } else {
            env.set_score(p, 0.0, env.node_id());
            env.evict(p);
        }
    }
    for &p in upcoming_set.iter() {
        env.set_score(p, 1.0, env.node_id());
    }
}

/// `Prefetch(Vec, Tx, MinScore)`: fetch what fits, then assign decaying
/// scores to the pages beyond.
fn prefetch(env: &mut dyn PrefetchEnv, tx: &Transaction, min_score: f64) {
    let page_size = env.page_size();
    let effective_used = env.cur().saturating_sub(env.reclaimable());
    let free_pages = env.cap().saturating_sub(effective_used) / page_size;
    // Future distinct pages, bounded: free window + a scoring horizon.
    let horizon_pages = free_pages + 64;
    let window_accesses = horizon_pages.saturating_mul(tx.elems_per_page().max(1));
    let future = tx.distinct_pages(tx.tail, window_accesses.min(1 << 20));
    let node = env.node_id();
    let num_pages = env.num_pages();

    let mut base_time = 0.0f64;
    let mut fetched = 0u64;
    let mut rest_start = future.len();
    // Contiguous absent pages are accumulated and submitted as one batched
    // run (one runtime crossing per run instead of one per page); a gap —
    // a resident page, or a non-sequential pattern — flushes the run.
    let mut pending: Option<(u64, u64)> = None;
    for (i, &p) in future.iter().enumerate() {
        if p >= num_pages {
            continue;
        }
        if fetched >= free_pages {
            rest_start = i;
            break;
        }
        base_time += page_size as f64 / env.tier_bandwidth(p).max(1) as f64;
        env.set_score(p, 1.0, node);
        if !env.resident(p) {
            pending = match pending {
                Some((first, count)) if first + count == p => Some((first, count + 1)),
                Some((first, count)) => {
                    env.issue_prefetch(first, count);
                    Some((p, 1))
                }
                None => Some((p, 1)),
            };
        }
        fetched += 1;
    }
    if let Some((first, count)) = pending {
        env.issue_prefetch(first, count);
    }
    // Decaying scores for pages that do not fit (see module-level deviation
    // note: BaseTime/EstTime, matching the paper's prose).
    if base_time == 0.0 {
        // No free space at all: derive the unit from the first future page
        // so the decay is still well defined.
        if let Some(&p) = future.get(rest_start) {
            base_time = page_size as f64 / env.tier_bandwidth(p).max(1) as f64;
        } else {
            return;
        }
    }
    let mut est_time = base_time;
    for &p in &future[rest_start..] {
        if p >= num_pages {
            continue;
        }
        est_time += page_size as f64 / env.tier_bandwidth(p).max(1) as f64;
        let score = base_time / est_time;
        if score <= min_score {
            break;
        }
        // Resident pages are already managed by the Evict phase; do not
        // downgrade them with a distance-decayed score.
        if !env.resident(p) {
            env.set_score(p, score, node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Access;
    use crate::tx::TxKind;
    use std::collections::HashMap;

    /// A mock pcache/scache for driving Algorithm 1 in isolation.
    struct MockEnv {
        cap: u64,
        page_size: u64,
        num_pages: u64,
        resident: std::collections::HashSet<u64>,
        scores: HashMap<u64, f64>,
        evicted: Vec<u64>,
        prefetched: Vec<u64>,
        runs: Vec<(u64, u64)>,
        slow_pages: std::collections::HashSet<u64>,
    }

    impl MockEnv {
        fn new(cap_pages: u64, page_size: u64, num_pages: u64) -> Self {
            Self {
                cap: cap_pages * page_size,
                page_size,
                num_pages,
                resident: Default::default(),
                scores: Default::default(),
                evicted: vec![],
                prefetched: vec![],
                runs: vec![],
                slow_pages: Default::default(),
            }
        }
    }

    impl PrefetchEnv for MockEnv {
        fn cap(&self) -> u64 {
            self.cap
        }
        fn cur(&self) -> u64 {
            self.resident.len() as u64 * self.page_size
        }
        fn page_size(&self) -> u64 {
            self.page_size
        }
        fn num_pages(&self) -> u64 {
            self.num_pages
        }
        fn node_id(&self) -> usize {
            3
        }
        fn tier_bandwidth(&self, page: u64) -> u64 {
            if self.slow_pages.contains(&page) {
                1_000
            } else {
                1_000_000
            }
        }
        fn set_score(&mut self, page: u64, score: f64, node: usize) {
            assert_eq!(node, 3);
            assert!((0.0..=1.0).contains(&score), "score {score} out of range");
            self.scores.insert(page, score);
        }
        fn evict(&mut self, page: u64) {
            self.resident.remove(&page);
            self.evicted.push(page);
        }
        fn resident(&self, page: u64) -> bool {
            self.resident.contains(&page)
        }
        fn issue_prefetch(&mut self, first: u64, count: u64) {
            self.runs.push((first, count));
            for page in first..first + count {
                self.resident.insert(page);
                self.prefetched.push(page);
            }
        }
    }

    fn seq_tx(len: u64) -> Transaction {
        // 8-byte elements, 64-byte pages → 8 accesses per page.
        Transaction::new(TxKind::seq(0, len), Access::ReadOnly, 8, 64)
    }

    #[test]
    fn consumed_pages_evicted_future_prefetched() {
        let mut env = MockEnv::new(4, 64, 100);
        let mut tx = seq_tx(800);
        // Consume pages 0 and 1 fully (16 accesses).
        env.resident.insert(0);
        env.resident.insert(1);
        for i in 0..16 {
            tx.record_access(i);
        }
        run_prefetcher(&mut env, &mut tx, 0.1);
        assert_eq!(env.evicted, vec![0, 1], "consumed pages evicted");
        assert_eq!(env.scores[&0], 0.0);
        assert_eq!(env.scores[&1], 0.0);
        // Free space = 4 pages → pages 2..6 prefetched with score 1.
        assert_eq!(env.prefetched, vec![2, 3, 4, 5]);
        for p in 2..6 {
            assert_eq!(env.scores[&p], 1.0);
        }
        // Head caught up.
        assert_eq!(tx.head, tx.tail);
    }

    #[test]
    fn scores_decay_beyond_free_space() {
        let mut env = MockEnv::new(2, 64, 100);
        let mut tx = seq_tx(800);
        for i in 0..8 {
            tx.record_access(i);
        }
        run_prefetcher(&mut env, &mut tx, 0.2);
        // Pages 1,2 prefetched (score 1); 3.. decaying.
        assert_eq!(env.prefetched, vec![1, 2]);
        let s3 = env.scores[&3];
        let s4 = env.scores[&4];
        assert!(s3 < 1.0 && s3 > 0.0);
        assert!(s4 < s3, "scores decay with distance: {s3} then {s4}");
        // The walk stopped at MinScore.
        assert!(env.scores.values().all(|&s| s == 0.0 || s > 0.2 || s == 1.0));
    }

    #[test]
    fn random_retouch_pages_not_evicted() {
        // Random pattern over a 2-page domain: touched pages reappear in
        // the upcoming window, so they must keep score 1 and stay resident.
        let mut env = MockEnv::new(2, 64, 2);
        let mut tx = Transaction::new(TxKind::rand(9, 0, 16), Access::ReadOnly, 8, 64);
        env.resident.insert(0);
        env.resident.insert(1);
        for k in 0..8 {
            let e = tx.kind.access_index(k);
            tx.record_access(e);
        }
        run_prefetcher(&mut env, &mut tx, 0.1);
        assert!(env.evicted.is_empty(), "retouched pages must not be evicted");
        assert!(env.resident.contains(&0) && env.resident.contains(&1));
    }

    #[test]
    fn no_free_space_scores_without_prefetching() {
        let mut env = MockEnv::new(1, 64, 100);
        // Fill the single slot with the page being consumed.
        env.resident.insert(1);
        let mut tx = seq_tx(800);
        for i in 0..9 {
            tx.record_access(i);
        }
        // head..tail covers pages 0 and 1; page 1 is current (access 8).
        tx.head = 8; // pretend page 0 was already acknowledged
        run_prefetcher(&mut env, &mut tx, 0.3);
        // Page 1 is both touched and upcoming → kept. No free space beyond
        // it (cap 1 page), so nothing new prefetched, but decaying scores
        // are still published for the road ahead.
        assert!(env.prefetched.len() <= 1);
        assert!(env.scores.iter().any(|(&p, &s)| p >= 2 && s > 0.0 && s < 1.0));
    }

    #[test]
    fn slow_tier_pages_extend_scoring_horizon() {
        // Pages on a slow tier take longer to fetch, so the "time before a
        // fault" grows faster and the scores decay faster.
        let mut fast = MockEnv::new(2, 64, 1000);
        let mut slow = MockEnv::new(2, 64, 1000);
        for p in 0..1000 {
            slow.slow_pages.insert(p);
        }
        let mut tx1 = seq_tx(8000);
        let mut tx2 = seq_tx(8000);
        for i in 0..8 {
            tx1.record_access(i);
            tx2.record_access(i);
        }
        run_prefetcher(&mut fast, &mut tx1, 0.05);
        run_prefetcher(&mut slow, &mut tx2, 0.05);
        // Relative decay is identical when *all* pages share a tier (the
        // ratio cancels); what matters is mixed tiers:
        let mut mixed = MockEnv::new(2, 64, 1000);
        for p in 4..1000 {
            mixed.slow_pages.insert(p);
        }
        let mut tx3 = seq_tx(8000);
        for i in 0..8 {
            tx3.record_access(i);
        }
        run_prefetcher(&mut mixed, &mut tx3, 0.001);
        // With slow pages ahead, estimated time balloons → scores collapse
        // quickly: page 5 already far below page 4's score.
        let s4 = mixed.scores.get(&4).copied().unwrap_or(0.0);
        let s5 = mixed.scores.get(&5).copied().unwrap_or(0.0);
        assert!(s4 > s5 * 2.0 || s5 == 0.0, "s4={s4} s5={s5}");
    }

    #[test]
    fn does_not_score_past_vector_end() {
        let mut env = MockEnv::new(8, 64, 3);
        let mut tx = seq_tx(24);
        for i in 0..8 {
            tx.record_access(i);
        }
        run_prefetcher(&mut env, &mut tx, 0.01);
        assert!(env.scores.keys().all(|&p| p < 3), "scores {:?}", env.scores);
        assert!(env.prefetched.iter().all(|&p| p < 3));
    }

    #[test]
    fn contiguous_window_submits_as_one_run() {
        let mut env = MockEnv::new(4, 64, 100);
        let mut tx = seq_tx(800);
        for i in 0..8 {
            tx.record_access(i);
        }
        run_prefetcher(&mut env, &mut tx, 0.1);
        // The four-page window 1..5 is contiguous and absent: one batched
        // submission, not four.
        assert_eq!(env.runs, vec![(1, 4)]);
        assert_eq!(env.prefetched, vec![1, 2, 3, 4]);
    }

    #[test]
    fn resident_gap_splits_the_run() {
        let mut env = MockEnv::new(4, 64, 100);
        env.resident.insert(2);
        let mut tx = seq_tx(800);
        for i in 0..8 {
            tx.record_access(i);
        }
        run_prefetcher(&mut env, &mut tx, 0.1);
        // Page 2 is already resident, so the window (three free pages:
        // 1, 3, 4 minus the budget spent walking past 2) splits around it.
        assert_eq!(env.runs, vec![(1, 1), (3, 1)]);
    }

    #[test]
    fn already_resident_pages_not_refetched() {
        let mut env = MockEnv::new(4, 64, 100);
        env.resident.insert(2);
        let mut tx = seq_tx(800);
        for i in 0..8 {
            tx.record_access(i);
        }
        run_prefetcher(&mut env, &mut tx, 0.1);
        assert!(!env.prefetched.contains(&2), "resident page 2 must not refetch");
        assert!(env.prefetched.contains(&1));
    }
}
