//! The failure trace — an ordered container of [`FailureRecord`]s.
//!
//! A [`FailureTrace`] builds, orders and holds records: every constructor
//! keeps them sorted by `(start, system, node)`, ties in insertion order.
//! Queries — filtering by system/node/cause/workload/time, grouping,
//! counting, downtime aggregation, inter-arrival extraction — go through
//! the zero-copy [`TraceIndex`](crate::index::TraceIndex) built by
//! [`FailureTrace::index`] and the [`TraceView`](crate::index::TraceView)s
//! it hands out. The one query kept here is
//! [`FailureTrace::filter_window`], a contiguous clip into a new owned
//! trace for callers that need one (generated-trace production windows).

use serde::{Deserialize, Serialize};

use crate::ids::{NodeId, SystemId};
use crate::record::FailureRecord;
use crate::time::Timestamp;

/// The sort key every trace keeps its records in.
fn sort_key(r: &FailureRecord) -> (Timestamp, SystemId, NodeId) {
    (r.start(), r.system(), r.node())
}

/// An ordered (by `(start, system, node)`) collection of failure records.
///
/// Every constructor yields the order a stable sort of the records by
/// that key would: [`FailureTrace::push`] inserts after equal keys, so
/// pushing records one by one equals [`FailureTrace::from_records`] of
/// the same sequence.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailureTrace {
    records: Vec<FailureRecord>,
}

impl FailureTrace {
    /// An empty trace.
    pub fn new() -> Self {
        FailureTrace {
            records: Vec::new(),
        }
    }

    /// Build a trace from records (stably sorted on construction).
    pub fn from_records(mut records: Vec<FailureRecord>) -> Self {
        records.sort_by_key(sort_key);
        FailureTrace { records }
    }

    /// Wrap records already in `(start, system, node)` order without
    /// re-sorting. Callers (the store loader) guarantee the invariant.
    pub(crate) fn from_sorted_records(records: Vec<FailureRecord>) -> Self {
        debug_assert!(records
            .windows(2)
            .all(|w| sort_key(&w[0]) <= sort_key(&w[1])));
        FailureTrace { records }
    }

    /// Add one record after every record whose key is `<=` its own —
    /// where a stable sort of the pushed sequence would put it.
    pub fn push(&mut self, record: FailureRecord) {
        let key = sort_key(&record);
        // Fast path: appending in key order.
        if self.records.last().is_none_or(|last| sort_key(last) <= key) {
            self.records.push(record);
        } else {
            let pos = self.records.partition_point(|r| sort_key(r) <= key);
            self.records.insert(pos, record);
        }
    }

    /// All records in `(start, system, node)` order.
    pub fn records(&self) -> &[FailureRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate over records.
    pub fn iter(&self) -> std::slice::Iter<'_, FailureRecord> {
        self.records.iter()
    }

    /// Records that *start* within `[from, to)`, as a new owned trace —
    /// the clip a generated trace takes to a system's production window.
    ///
    /// Because records are kept sorted by start time, the window is two
    /// binary searches plus one contiguous copy, not a full scan. Borrowed
    /// windows of an indexed trace are [`TraceView::window`](crate::index::TraceView::window).
    pub fn filter_window(&self, from: Timestamp, to: Timestamp) -> FailureTrace {
        let lo = self.records.partition_point(|r| r.start() < from);
        let hi = self.records.partition_point(|r| r.start() < to);
        FailureTrace {
            records: self.records[lo..hi.max(lo)].to_vec(),
        }
    }

    /// Merge another trace into this one: a single O(n+m) two-pointer
    /// merge of the two sorted record vectors. Equal keys take the `self`
    /// record first, which is what a stable sort of the concatenation
    /// produces.
    pub fn merge(&mut self, other: FailureTrace) {
        if other.records.is_empty() {
            return;
        }
        if self.records.is_empty() {
            self.records = other.records;
            return;
        }
        let a = std::mem::take(&mut self.records);
        let b = other.records;
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if sort_key(&a[i]) <= sort_key(&b[j]) {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.records = merged;
    }

    /// A zero-copy query index over this trace. See [`crate::index`].
    pub fn index(&self) -> crate::index::TraceIndex<'_> {
        crate::index::TraceIndex::build(self)
    }
}

impl FromIterator<FailureRecord> for FailureTrace {
    fn from_iter<I: IntoIterator<Item = FailureRecord>>(iter: I) -> Self {
        FailureTrace::from_records(iter.into_iter().collect())
    }
}

impl Extend<FailureRecord> for FailureTrace {
    fn extend<I: IntoIterator<Item = FailureRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

impl<'a> IntoIterator for &'a FailureTrace {
    type Item = &'a FailureRecord;
    type IntoIter = std::slice::Iter<'a, FailureRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::{DetailedCause, RootCause};
    use crate::error::RecordError;
    use crate::workload::Workload;

    fn rec(system: u32, node: u32, start: u64, dur: u64, detail: DetailedCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(system),
            NodeId::new(node),
            Timestamp::from_secs(start),
            Timestamp::from_secs(start + dur),
            Workload::Compute,
            detail,
        )
        .unwrap()
    }

    fn sample_trace() -> FailureTrace {
        FailureTrace::from_records(vec![
            rec(20, 0, 1_000, 60, DetailedCause::Memory),
            rec(20, 1, 500, 120, DetailedCause::OperatingSystem),
            rec(20, 0, 2_000, 30, DetailedCause::Cpu),
            rec(5, 3, 1_500, 600, DetailedCause::PowerOutage),
            rec(20, 1, 2_000, 90, DetailedCause::Undetermined),
        ])
    }

    #[test]
    fn construction_sorts_by_start() {
        let t = sample_trace();
        let starts: Vec<u64> = t.iter().map(|r| r.start().as_secs()).collect();
        assert_eq!(starts, vec![500, 1_000, 1_500, 2_000, 2_000]);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn push_maintains_order() {
        let mut t = FailureTrace::new();
        t.push(rec(1, 0, 100, 1, DetailedCause::Memory));
        t.push(rec(1, 0, 50, 1, DetailedCause::Memory)); // out of order
        t.push(rec(1, 0, 200, 1, DetailedCause::Memory));
        let starts: Vec<u64> = t.iter().map(|r| r.start().as_secs()).collect();
        assert_eq!(starts, vec![50, 100, 200]);
    }

    #[test]
    fn push_orders_equal_starts_by_system_and_node() {
        // Equal starts pushed as systems 20 then 5: the trace must hold
        // them as the sort does, [5, 20], and equal `from_records`.
        let records = vec![
            rec(20, 0, 100, 1, DetailedCause::Memory),
            rec(5, 0, 100, 1, DetailedCause::Memory),
            rec(5, 0, 100, 2, DetailedCause::Cpu), // equal key: after its twin
        ];
        let mut pushed = FailureTrace::new();
        for r in &records {
            pushed.push(*r);
        }
        let systems: Vec<u32> = pushed.iter().map(|r| r.system().get()).collect();
        assert_eq!(systems, vec![5, 5, 20]);
        assert_eq!(pushed.records()[0].downtime_secs(), 1);
        assert_eq!(pushed, FailureTrace::from_records(records));
    }

    // The queries of a trace go through its index; these pin them on
    // hand-computed values over `sample_trace`, whose sorted starts are
    // 500 (20,1), 1000 (20,0), 1500 (5,3), 2000 (20,0), 2000 (20,1).

    #[test]
    fn filters() {
        let t = sample_trace();
        let index = t.index();
        assert_eq!(index.system(SystemId::new(20)).len(), 4);
        assert_eq!(index.system(SystemId::new(5)).len(), 1);
        assert_eq!(index.node(SystemId::new(20), NodeId::new(0)).len(), 2);
        assert_eq!(index.cause(RootCause::Hardware).len(), 2);
        assert_eq!(index.all().filter_cause(RootCause::Environment).len(), 1);
        assert_eq!(
            index
                .all()
                .window(Timestamp::from_secs(1_000), Timestamp::from_secs(2_000))
                .len(),
            2
        );
        assert_eq!(index.workload(Workload::Compute).len(), 5);
        assert_eq!(index.all().filter_workload(Workload::Graphics).len(), 0);
    }

    #[test]
    fn counting_and_downtime() {
        let t = sample_trace();
        let index = t.index();
        let all = index.all();
        let by_cause = all.count_by_cause();
        assert_eq!(by_cause[&RootCause::Hardware], 2);
        assert_eq!(by_cause[&RootCause::Software], 1);
        assert_eq!(by_cause[&RootCause::Unknown], 1);
        let dt = all.downtime_by_cause();
        assert_eq!(dt[&RootCause::Environment], 600);
        assert_eq!(dt[&RootCause::Hardware], 90);
        assert_eq!(all.total_downtime_secs(), 60 + 120 + 30 + 600 + 90);
        assert_eq!(all.downtimes_minutes(), vec![2.0, 1.0, 10.0, 0.5, 1.5]);
        let by_sys = all.count_by_system();
        assert_eq!(by_sys[&SystemId::new(20)], 4);
    }

    #[test]
    fn failures_per_node_includes_zeros() {
        let t = sample_trace();
        let index = t.index();
        assert_eq!(
            index.failures_per_node(SystemId::new(20), 4),
            vec![2, 2, 0, 0]
        );
        // Out-of-range node ids are ignored rather than panicking.
        assert_eq!(index.failures_per_node(SystemId::new(20), 1), vec![2]);
    }

    #[test]
    fn system_wide_interarrivals_keep_zeros() {
        let t = sample_trace();
        let index = t.index();
        let gaps = index.all().interarrival_secs().unwrap();
        assert_eq!(gaps, vec![500.0, 500.0, 500.0, 0.0]);
        assert!((index.all().zero_gap_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn per_node_interarrivals() {
        let t = sample_trace();
        let index = t.index();
        // node (20,0): 2000-1000 = 1000; node (20,1): 2000-500 = 1500.
        assert_eq!(
            index.all().per_node_interarrival_secs(),
            vec![1_000.0, 1_500.0]
        );
    }

    #[test]
    fn empty_trace_errors() {
        let t = FailureTrace::new();
        let index = t.index();
        let all = index.all();
        assert!(matches!(
            all.interarrival_secs(),
            Err(RecordError::EmptyTrace)
        ));
        assert!(all.zero_gap_fraction().is_nan());
        assert!(all.first_start().is_none());
        assert_eq!(all.per_node_interarrival_secs(), Vec::<f64>::new());
    }

    #[test]
    fn first_last_start() {
        let t = sample_trace();
        let index = t.index();
        assert_eq!(index.all().first_start().unwrap().as_secs(), 500);
        assert_eq!(index.all().last_start().unwrap().as_secs(), 2_000);
    }

    #[test]
    fn filter_window_clips_by_start() {
        let t = sample_trace();
        let w = t.filter_window(Timestamp::from_secs(1_000), Timestamp::from_secs(2_000));
        let starts: Vec<u64> = w.iter().map(|r| r.start().as_secs()).collect();
        assert_eq!(starts, vec![1_000, 1_500]);
        // An inverted window is empty, not a panic.
        assert!(t
            .filter_window(Timestamp::from_secs(2_000), Timestamp::from_secs(500))
            .is_empty());
    }

    #[test]
    fn merge_and_collect() {
        let mut a = sample_trace();
        let b = FailureTrace::from_records(vec![rec(7, 9, 10, 5, DetailedCause::Disk)]);
        a.merge(b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.records()[0].start().as_secs(), 10);

        let collected: FailureTrace = sample_trace().iter().copied().collect();
        assert_eq!(collected.len(), 5);

        let mut ext = FailureTrace::new();
        ext.extend(sample_trace().iter().copied());
        assert_eq!(ext, sample_trace());
    }

    #[test]
    fn merge_equals_sorting_the_concatenation() {
        let left = sample_trace();
        let right = FailureTrace::from_records(vec![
            rec(5, 3, 1_500, 7, DetailedCause::Disk), // equal key to a left record
            rec(20, 1, 2_000, 1, DetailedCause::Cpu),
            rec(1, 0, 2_000, 1, DetailedCause::Cpu),
        ]);
        let mut merged = left.clone();
        merged.merge(right.clone());
        let mut concat = left.records().to_vec();
        concat.extend_from_slice(right.records());
        assert_eq!(merged, FailureTrace::from_records(concat));

        let mut into_empty = FailureTrace::new();
        into_empty.merge(right.clone());
        assert_eq!(into_empty, right);
    }
}
