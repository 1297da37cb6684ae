//! Multi-user buffering sketch (paper §3.3, future work).
//!
//! The paper outlines two options for extending RAP to multi-user
//! workloads; this module implements the first: "allocate separate
//! buffer slots to separate queries and use the RAP policy as defined
//! here for each query". Each user gets a private partition (its own
//! policy instance and frame quota) over the shared page store, so one
//! user's scan cannot flood another's working set. Cross-partition
//! sharing — the paper's note that "users may benefit from pages cached
//! in buffers for other users" — is supported read-only: a fetch first
//! probes sibling partitions and copies a hit instead of going to disk.

use crate::buffer::{BufferManager, FetchOutcome, FetchPolicy};
use crate::disk::PageStore;
use crate::page::Page;
use crate::policy::PolicyKind;
use crate::stats::BufferStats;
use ir_observe::MetricsSnapshot;
use ir_types::{IrError, IrResult, ReadPlan, TermId};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a buffer partition (one per concurrent user/query).
pub type PartitionId = usize;

/// Equal-quota partitioned buffer pool over a shared store.
#[derive(Debug)]
pub struct PartitionedBuffer<S: PageStore> {
    partitions: Vec<BufferManager<Arc<S>>>,
}

impl<S: PageStore> PartitionedBuffer<S> {
    /// Creates `n_partitions` partitions of `frames_each` frames, all
    /// running `policy`, over a shared `store`.
    ///
    /// # Errors
    /// [`IrError::EmptyBufferPool`] if either count is zero.
    pub fn new(
        store: Arc<S>,
        n_partitions: usize,
        frames_each: usize,
        policy: PolicyKind,
    ) -> IrResult<Self> {
        if n_partitions == 0 {
            return Err(IrError::EmptyBufferPool);
        }
        let partitions = (0..n_partitions)
            .map(|_| BufferManager::new(Arc::clone(&store), frames_each, policy))
            .collect::<IrResult<Vec<_>>>()?;
        Ok(PartitionedBuffer { partitions })
    }

    /// Executes a [`ReadPlan`] on behalf of partition `pid`, writing
    /// into `out` (cleared first). Entries are served strictly in plan
    /// order: a page resident in `pid`'s own frames is a `Hit`; a miss
    /// first probes the sibling partitions and copies a resident page
    /// over instead of going to disk (`Borrowed`); only if no sibling
    /// holds it does the request reach the shared store (`Miss`). The
    /// probe must see every earlier entry's effect on sibling
    /// partitions, which rules out resolving borrows up front. Value
    /// hints reach `pid`'s own policy on store misses; the batch is
    /// counted on `pid`'s metrics.
    pub fn fetch_batch_into(
        &mut self,
        pid: PartitionId,
        plan: &ReadPlan,
        out: &mut Vec<(Page, FetchOutcome)>,
    ) -> IrResult<()> {
        let n = self.partitions.len();
        if pid >= n {
            return Err(IrError::InvalidConfig(format!(
                "partition {pid} out of range (have {n})"
            )));
        }
        {
            let m = self.partitions[pid].metrics();
            m.batches.inc();
            m.batch_pages.record(plan.len() as u64);
        }
        out.clear();
        out.reserve(plan.len());
        for entry in plan.iter() {
            let id = entry.page;
            let sibling = if self.partitions[pid].is_resident(id) {
                None
            } else {
                (0..n)
                    .filter(|p| *p != pid)
                    .find_map(|p| self.partitions[p].peek(id))
            };
            let Some(page) = sibling else {
                out.push(self.partitions[pid].fetch_one_hinted(*entry)?);
                continue;
            };
            // Borrow the sibling's frame: admit the copy store-lessly,
            // then serve the request as the buffer hit it now is. The
            // borrow counts as a hit (not a miss) in `pid`'s partition
            // and issues zero reads against the shared store; admit
            // records it on the partition's borrow counter.
            self.partitions[pid].admit(page)?;
            let (page, _) = self.partitions[pid].fetch_one_hinted(*entry)?;
            out.push((page, FetchOutcome::Borrowed));
        }
        Ok(())
    }

    /// Sets the store-read retry policy on every partition.
    pub fn set_fetch_policy(&mut self, policy: FetchPolicy) {
        for p in &mut self.partitions {
            p.set_fetch_policy(policy);
        }
    }

    /// Sum of every partition's retried store reads.
    pub fn retries(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.metrics().retries.get())
            .sum()
    }

    /// Sum of every partition's abandoned (retry-exhausted) fetches.
    pub fn gave_up(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.metrics().gave_up.get())
            .sum()
    }

    /// Sum of every partition's rejected torn deliveries.
    pub fn torn_pages(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.metrics().torn_pages.get())
            .sum()
    }

    /// Announces query weights for one partition's current query.
    pub fn begin_query(&mut self, pid: PartitionId, weights: &HashMap<TermId, f64>) {
        if let Some(p) = self.partitions.get_mut(pid) {
            p.begin_query(weights);
        }
    }

    /// Disk reads that were avoidable because a sibling partition held
    /// the page (the paper's cross-user benefit, reported separately).
    /// Within a partitioned pool every admission is a sibling borrow,
    /// so this is the sum of the per-partition borrow counters.
    pub fn sibling_hits(&self) -> u64 {
        self.partitions.iter().map(BufferManager::borrows).sum()
    }

    /// Sibling borrows charged to one partition.
    pub fn borrows(&self, pid: PartitionId) -> u64 {
        self.partitions.get(pid).map_or(0, BufferManager::borrows)
    }

    /// `b_t` within one partition: resident pages of `term`'s list in
    /// `pid`'s own frames (sibling copies do not count).
    pub fn resident_pages(&self, pid: PartitionId, term: TermId) -> u32 {
        self.partitions
            .get(pid)
            .map_or(0, |p| p.resident_pages(term))
    }

    /// Statistics for one partition.
    pub fn stats(&self, pid: PartitionId) -> Option<BufferStats> {
        self.partitions.get(pid).map(|p| p.stats())
    }

    /// Aggregate statistics over all partitions.
    pub fn total_stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for p in &self.partitions {
            let s = p.stats();
            total.requests += s.requests;
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// One counter snapshot covering every partition: each
    /// partition's counters summed by name. Histograms and gauges are
    /// per-partition state and are not merged — this rollup exists so
    /// pool-wide counters (e.g. an adaptive policy's `adaptive.*`
    /// instruments) stay visible under the partitioned layout.
    pub fn merged_dump(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for p in &self.partitions {
            for (name, value) in p.metrics().dump().counters {
                match merged.counters.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += value,
                    None => merged.counters.push((name, value)),
                }
            }
        }
        merged
    }

    /// Number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Frames in use across all partitions.
    pub fn occupancy(&self) -> usize {
        self.partitions.iter().map(BufferManager::len).sum()
    }

    /// Flushes every partition.
    pub fn flush_all(&mut self) {
        for p in &mut self.partitions {
            p.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSim;
    use ir_types::{PageId, Posting};

    /// Test shorthand over the one batch loop: the allocating form and
    /// the one-entry plan.
    impl<S: PageStore> PartitionedBuffer<S> {
        fn fetch_batch(
            &mut self,
            pid: PartitionId,
            plan: &ReadPlan,
        ) -> IrResult<Vec<(Page, FetchOutcome)>> {
            let mut out = Vec::new();
            self.fetch_batch_into(pid, plan, &mut out)?;
            Ok(out)
        }

        fn fetch(&mut self, pid: PartitionId, id: PageId) -> IrResult<Page> {
            Ok(self.fetch_batch(pid, &ReadPlan::single(id))?.remove(0).0)
        }
    }

    fn store(n_terms: u32, pages: u32) -> Arc<DiskSim> {
        let lists = (0..n_terms)
            .map(|t| {
                (0..pages)
                    .map(|p| {
                        let postings: Vec<Posting> = vec![Posting::new(p, pages - p)];
                        Page::new(PageId::new(TermId(t), p), postings.into(), 1.0)
                    })
                    .collect()
            })
            .collect();
        Arc::new(DiskSim::new(lists))
    }

    fn pid(t: u32, p: u32) -> PageId {
        PageId::new(TermId(t), p)
    }

    #[test]
    fn partitions_are_isolated() {
        let s = store(2, 4);
        let mut pb = PartitionedBuffer::new(Arc::clone(&s), 2, 2, PolicyKind::Lru).unwrap();
        // User 0 scans term 0; user 1 scans term 1.
        for p in 0..4 {
            pb.fetch(0, pid(0, p)).unwrap();
            pb.fetch(1, pid(1, p)).unwrap();
        }
        // Neither scan evicted the other's pages: each partition holds
        // only its own term.
        let s0 = pb.stats(0).unwrap();
        let s1 = pb.stats(1).unwrap();
        assert_eq!(s0.misses, 4);
        assert_eq!(s1.misses, 4);
    }

    #[test]
    fn sibling_hit_detected() {
        let s = store(1, 2);
        let mut pb = PartitionedBuffer::new(Arc::clone(&s), 2, 2, PolicyKind::Lru).unwrap();
        pb.fetch(0, pid(0, 0)).unwrap();
        assert_eq!(pb.sibling_hits(), 0);
        pb.fetch(1, pid(0, 0)).unwrap();
        assert_eq!(pb.sibling_hits(), 1);
    }

    #[test]
    fn sibling_borrow_issues_no_store_read() {
        let s = store(1, 2);
        let mut pb = PartitionedBuffer::new(Arc::clone(&s), 2, 2, PolicyKind::Lru).unwrap();
        pb.fetch(0, pid(0, 0)).unwrap(); // real miss: 1 disk read
        let reads_before = s.stats().reads;
        let misses_before = pb.total_stats().misses;
        pb.fetch(1, pid(0, 0)).unwrap(); // borrowed from partition 0
        assert_eq!(pb.sibling_hits(), 1);
        assert_eq!(
            s.stats().reads,
            reads_before,
            "borrow must not touch the disk"
        );
        assert_eq!(
            pb.total_stats().misses,
            misses_before,
            "borrow is a hit, not a miss"
        );
        let s1 = pb.stats(1).unwrap();
        assert_eq!((s1.requests, s1.hits, s1.misses), (1, 1, 0));
        // The borrowed copy is now resident in partition 1: another
        // fetch is an ordinary local hit, not a second sibling hit.
        pb.fetch(1, pid(0, 0)).unwrap();
        assert_eq!(pb.sibling_hits(), 1);
        assert_eq!(pb.stats(1).unwrap().hits, 2);
    }

    #[test]
    fn out_of_range_partition_errors() {
        let s = store(1, 1);
        let mut pb = PartitionedBuffer::new(s, 1, 1, PolicyKind::Lru).unwrap();
        assert!(pb.fetch(5, pid(0, 0)).is_err());
    }

    #[test]
    fn zero_partitions_rejected() {
        let s = store(1, 1);
        assert!(matches!(
            PartitionedBuffer::new(s, 0, 1, PolicyKind::Lru),
            Err(IrError::EmptyBufferPool)
        ));
    }

    #[test]
    fn total_stats_aggregates() {
        let s = store(1, 2);
        let mut pb = PartitionedBuffer::new(s, 2, 2, PolicyKind::Lru).unwrap();
        pb.fetch(0, pid(0, 0)).unwrap();
        pb.fetch(1, pid(0, 1)).unwrap();
        let t = pb.total_stats();
        assert_eq!(t.requests, 2);
        assert_eq!(t.misses, 2);
        pb.flush_all();
        assert_eq!(pb.n_partitions(), 2);
    }

    #[test]
    fn fetch_batch_borrows_from_siblings_in_order() {
        let s = store(1, 4);
        let mut pb = PartitionedBuffer::new(Arc::clone(&s), 2, 3, PolicyKind::Lru).unwrap();
        // Partition 0 loads pages 0 and 1 from the store.
        pb.fetch(0, pid(0, 0)).unwrap();
        pb.fetch(0, pid(0, 1)).unwrap();
        let reads_before = s.stats().reads;
        // Partition 1 batches [0, 1, 2, 0]: two borrows, one store
        // read, one local hit on the copy admitted by entry 0.
        let plan: ir_types::ReadPlan = [pid(0, 0), pid(0, 1), pid(0, 2), pid(0, 0)]
            .into_iter()
            .map(ir_types::PlanEntry::new)
            .collect();
        let out = pb.fetch_batch(1, &plan).unwrap();
        let outcomes: Vec<FetchOutcome> = out.iter().map(|(_, o)| *o).collect();
        assert_eq!(
            outcomes,
            [
                FetchOutcome::Borrowed,
                FetchOutcome::Borrowed,
                FetchOutcome::Miss,
                FetchOutcome::Hit,
            ]
        );
        assert_eq!(s.stats().reads, reads_before + 1, "borrows skip the store");
        assert_eq!(pb.borrows(1), 2);
        // The batch and its size land on the owning partition;
        // partition 0 saw only its own two one-entry plans.
        assert_eq!(pb.partitions[1].metrics().batches.get(), 1);
        assert_eq!(pb.partitions[1].metrics().batch_pages.sum(), 4);
        assert_eq!(pb.partitions[0].metrics().batches.get(), 2);
        // Out-of-range pid is rejected up front.
        assert!(pb.fetch_batch(7, &plan).is_err());
    }

    #[test]
    fn rap_per_partition_queries() {
        let s = store(2, 2);
        let mut pb = PartitionedBuffer::new(s, 2, 1, PolicyKind::Rap).unwrap();
        let w0: HashMap<TermId, f64> = [(TermId(0), 1.0)].into_iter().collect();
        let w1: HashMap<TermId, f64> = [(TermId(1), 1.0)].into_iter().collect();
        pb.begin_query(0, &w0);
        pb.begin_query(1, &w1);
        pb.fetch(0, pid(0, 0)).unwrap();
        pb.fetch(1, pid(1, 0)).unwrap();
        assert_eq!(pb.total_stats().misses, 2);
    }
}
