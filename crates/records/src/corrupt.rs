//! Deterministic fault injection for ingest robustness testing.
//!
//! A [`Corruptor`] takes a clean CSV (or a [`FailureTrace`] it first
//! serializes) and mutates it with a configurable mix of the faults real
//! operator-entered logs exhibit: mangled fields, duplicated rows,
//! truncated lines, BOM/CRLF/encoding junk, inverted and skewed
//! timestamps, shuffled row order, and mid-file truncation.
//!
//! Every mutation is drawn from SplitMix64 seed streams (the same
//! [`hpcfail_exec::SeedSequence`] derivation the parallel executor
//! uses), so a corruption is exactly replayable from its
//! [`CorruptionPlan`] — the robustness harness prints the plan on any
//! failure and re-running with the same plan reproduces the input
//! byte-for-byte.

use std::fmt;

use hpcfail_exec::{pick_weighted, unit_f64, SeedSequence};

use crate::io::{is_header, write_csv};
use crate::trace::FailureTrace;

/// Garbage substituted into mangled fields — the kinds of junk that show
/// up in hand-edited spreadsheets.
const GARBAGE: [&str; 7] = ["", "???", "-1", "NaN", "18446744073709551617", "gremlins", "0x1f"];

/// Valid-UTF-8 encoding junk inserted by the `EncodingJunk` fault.
const JUNK: [&str; 4] = ["\u{feff}", "\r", "\u{fffd}", "caf\u{e9}"];

/// One row-level fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Replace one field with garbage text.
    MangleField,
    /// Emit the row twice.
    DuplicateRow,
    /// Cut the line at a random character boundary.
    TruncateLine,
    /// Prepend/append BOM, stray `\r`, or other valid-UTF-8 junk.
    EncodingJunk,
    /// Swap the start and end timestamp fields.
    InvertTimestamps,
    /// Shift one timestamp field by a random offset.
    SkewTimestamp,
}

/// Relative weights of the row-level faults. A weight of zero disables
/// that fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMix {
    /// Weight of [`Fault::MangleField`].
    pub mangle_field: u32,
    /// Weight of [`Fault::DuplicateRow`].
    pub duplicate_row: u32,
    /// Weight of [`Fault::TruncateLine`].
    pub truncate_line: u32,
    /// Weight of [`Fault::EncodingJunk`].
    pub encoding_junk: u32,
    /// Weight of [`Fault::InvertTimestamps`].
    pub invert_timestamps: u32,
    /// Weight of [`Fault::SkewTimestamp`].
    pub skew_timestamp: u32,
}

impl FaultMix {
    /// All fault kinds equally likely.
    pub fn uniform() -> Self {
        FaultMix {
            mangle_field: 1,
            duplicate_row: 1,
            truncate_line: 1,
            encoding_junk: 1,
            invert_timestamps: 1,
            skew_timestamp: 1,
        }
    }

    fn weighted(&self) -> [(Fault, u32); 6] {
        [
            (Fault::MangleField, self.mangle_field),
            (Fault::DuplicateRow, self.duplicate_row),
            (Fault::TruncateLine, self.truncate_line),
            (Fault::EncodingJunk, self.encoding_junk),
            (Fault::InvertTimestamps, self.invert_timestamps),
            (Fault::SkewTimestamp, self.skew_timestamp),
        ]
    }
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix::uniform()
    }
}

/// A complete, replayable description of one corruption: the seed, the
/// per-row fault probability, the fault mix, and the file-level
/// mutations. `(seed, plan)` fully determines the corrupted output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionPlan {
    /// Root seed for all randomness.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given data row receives a fault.
    pub rate: f64,
    /// Relative weights of the row-level fault kinds.
    pub mix: FaultMix,
    /// Shuffle the data rows (Fisher–Yates, seeded).
    pub shuffle_rows: bool,
    /// Cut the file mid-stream: drop a random tail of the data rows and
    /// chop the last surviving row in half.
    pub truncate_file: bool,
}

impl CorruptionPlan {
    /// A plan with the uniform mix, no shuffling, and no file
    /// truncation — the common starting point.
    pub fn new(seed: u64, rate: f64) -> Self {
        CorruptionPlan {
            seed,
            rate,
            mix: FaultMix::uniform(),
            shuffle_rows: false,
            truncate_file: false,
        }
    }
}

impl fmt::Display for CorruptionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} rate={} mix=[mangle:{} dup:{} trunc:{} junk:{} invert:{} skew:{}] shuffle={} truncate_file={}",
            self.seed,
            self.rate,
            self.mix.mangle_field,
            self.mix.duplicate_row,
            self.mix.truncate_line,
            self.mix.encoding_junk,
            self.mix.invert_timestamps,
            self.mix.skew_timestamp,
            self.shuffle_rows,
            self.truncate_file,
        )
    }
}

/// Applies a [`CorruptionPlan`] to clean CSV text. Stateless between
/// calls: corrupting the same input with the same plan always yields the
/// same output.
#[derive(Debug, Clone, Copy)]
pub struct Corruptor {
    plan: CorruptionPlan,
}

impl Corruptor {
    /// A corruptor executing `plan`.
    pub fn new(plan: CorruptionPlan) -> Self {
        Corruptor { plan }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &CorruptionPlan {
        &self.plan
    }

    /// Serialize `trace` with [`write_csv`] and corrupt the result.
    pub fn corrupt_trace(&self, trace: &FailureTrace) -> String {
        let mut buf = Vec::new();
        write_csv(trace, &mut buf).expect("writing to a Vec cannot fail");
        let clean = String::from_utf8(buf).expect("write_csv emits UTF-8");
        self.corrupt_csv(&clean)
    }

    /// Corrupt CSV text. Header and comment lines pass through; each
    /// data row independently receives a fault with probability
    /// `plan.rate`; then the file-level mutations (shuffle, mid-file
    /// truncation) apply.
    pub fn corrupt_csv(&self, clean: &str) -> String {
        // Child 0 seeds the per-row faults, child 1 the file-level ones,
        // so adding rows never perturbs the file-level draws.
        let seq = SeedSequence::new(self.plan.seed);
        let row_space = seq.child(0);
        let file_space = seq.child(1);

        let mut preserved: Vec<String> = Vec::new(); // header/comments, kept in place
        let mut rows: Vec<String> = Vec::new();
        let mut row_index = 0u64;
        for line in clean.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || is_header(trimmed) {
                if rows.is_empty() {
                    preserved.push(line.to_string());
                }
                continue;
            }
            let stream = row_space.child(row_index);
            row_index += 1;
            if unit_f64(stream.stream(0)) < self.plan.rate {
                self.apply_fault(line, &stream, &mut rows);
            } else {
                rows.push(line.to_string());
            }
        }

        if self.plan.shuffle_rows {
            // Fisher–Yates with one stream per position.
            let shuffle = file_space.child(0);
            for i in (1..rows.len()).rev() {
                let j = (shuffle.stream(i as u64) % (i as u64 + 1)) as usize;
                rows.swap(i, j);
            }
        }
        if self.plan.truncate_file && !rows.is_empty() {
            let cut = file_space.child(1);
            let keep = 1 + (cut.stream(0) % rows.len() as u64) as usize;
            rows.truncate(keep);
            let last = rows.pop().expect("keep >= 1");
            rows.push(truncate_at_char(&last, cut.stream(1)));
        }

        let mut out = preserved;
        out.extend(rows);
        let mut text = out.join("\n");
        text.push('\n');
        text
    }

    fn apply_fault(&self, line: &str, stream: &SeedSequence, out: &mut Vec<String>) {
        // An all-zero mix leaves the row untouched.
        let Some(fault) = pick_weighted(&self.plan.mix.weighted(), || stream.stream(1)) else {
            out.push(line.to_string());
            return;
        };
        match fault {
            Fault::MangleField => {
                let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
                let idx = (stream.stream(2) % fields.len() as u64) as usize;
                let garbage = GARBAGE[(stream.stream(3) % GARBAGE.len() as u64) as usize];
                fields[idx] = garbage.to_string();
                out.push(fields.join(","));
            }
            Fault::DuplicateRow => {
                out.push(line.to_string());
                out.push(line.to_string());
            }
            Fault::TruncateLine => {
                out.push(truncate_at_char(line, stream.stream(2)));
            }
            Fault::EncodingJunk => {
                let junk = JUNK[(stream.stream(2) % JUNK.len() as u64) as usize];
                if stream.stream(3) % 2 == 0 {
                    out.push(format!("{junk}{line}"));
                } else {
                    out.push(format!("{line}{junk}"));
                }
            }
            Fault::InvertTimestamps => {
                let mut fields: Vec<&str> = line.split(',').collect();
                if fields.len() >= 4 {
                    fields.swap(2, 3);
                }
                out.push(fields.join(","));
            }
            Fault::SkewTimestamp => {
                let mut fields: Vec<String> = line.split(',').map(str::to_string).collect();
                if fields.len() >= 4 {
                    let idx = 2 + (stream.stream(2) % 2) as usize;
                    if let Ok(v) = fields[idx].trim().parse::<u64>() {
                        let offset = (stream.stream(3) % 10_000) as i64 - 5_000;
                        fields[idx] = v.saturating_add_signed(offset).to_string();
                    }
                }
                out.push(fields.join(","));
            }
        }
    }
}

/// One binary-file fault kind, aimed at packed `.hpct` stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryFault {
    /// Cut the file at a random interior byte (torn write / partial
    /// download): the result is always a strict prefix.
    MidTruncate,
    /// Cut inside the first 64 bytes, tearing the header or section
    /// table itself.
    TornHeader,
    /// Flip one to four random bits anywhere in the file (bit rot,
    /// bad DMA). Flip positions are deduplicated so the output always
    /// differs from the input.
    BitFlips,
    /// Overwrite the format-version field (bytes 4..6) with a version
    /// this build does not speak — the downgrade/upgrade skew case.
    VersionSkew,
}

/// Relative weights of the binary fault kinds. A weight of zero
/// disables that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryFaultMix {
    /// Weight of [`BinaryFault::MidTruncate`].
    pub mid_truncate: u32,
    /// Weight of [`BinaryFault::TornHeader`].
    pub torn_header: u32,
    /// Weight of [`BinaryFault::BitFlips`].
    pub bit_flips: u32,
    /// Weight of [`BinaryFault::VersionSkew`].
    pub version_skew: u32,
}

impl BinaryFaultMix {
    /// All binary fault kinds equally likely.
    pub fn uniform() -> Self {
        BinaryFaultMix {
            mid_truncate: 1,
            torn_header: 1,
            bit_flips: 1,
            version_skew: 1,
        }
    }

    fn weighted(&self) -> [(BinaryFault, u32); 4] {
        [
            (BinaryFault::MidTruncate, self.mid_truncate),
            (BinaryFault::TornHeader, self.torn_header),
            (BinaryFault::BitFlips, self.bit_flips),
            (BinaryFault::VersionSkew, self.version_skew),
        ]
    }
}

impl Default for BinaryFaultMix {
    fn default() -> Self {
        BinaryFaultMix::uniform()
    }
}

/// A replayable description of one binary corruption: seed plus fault
/// mix. `(seed, plan)` fully determines the corrupted bytes, exactly as
/// [`CorruptionPlan`] does for CSV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryCorruptionPlan {
    /// Root seed for all randomness.
    pub seed: u64,
    /// Relative weights of the binary fault kinds.
    pub mix: BinaryFaultMix,
}

impl BinaryCorruptionPlan {
    /// A plan with the uniform mix.
    pub fn new(seed: u64) -> Self {
        BinaryCorruptionPlan {
            seed,
            mix: BinaryFaultMix::uniform(),
        }
    }
}

impl fmt::Display for BinaryCorruptionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} mix=[mid_truncate:{} torn_header:{} bit_flips:{} version_skew:{}]",
            self.seed,
            self.mix.mid_truncate,
            self.mix.torn_header,
            self.mix.bit_flips,
            self.mix.version_skew,
        )
    }
}

/// Applies a [`BinaryCorruptionPlan`] to a packed byte image. Each call
/// injects exactly one fault (whose kind is drawn from the mix), so a
/// sweep over seeds covers every kind with every cut/flip position
/// seeded independently.
#[derive(Debug, Clone, Copy)]
pub struct BinaryCorruptor {
    plan: BinaryCorruptionPlan,
}

impl BinaryCorruptor {
    /// A corruptor executing `plan`.
    pub fn new(plan: BinaryCorruptionPlan) -> Self {
        BinaryCorruptor { plan }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &BinaryCorruptionPlan {
        &self.plan
    }

    /// The fault kind this plan's seed selects.
    pub fn fault(&self) -> BinaryFault {
        let seq = SeedSequence::new(self.plan.seed);
        self.pick_fault(&seq.child(0))
    }

    /// Corrupt `clean` (a packed `.hpct` image of at least 8 bytes) with
    /// one seeded fault. The output is guaranteed to differ from the
    /// input.
    pub fn corrupt_bytes(&self, clean: &[u8]) -> Vec<u8> {
        assert!(clean.len() >= 8, "need at least a header prefix to corrupt");
        // Child 0 picks the fault kind, child 1 its parameters — adding
        // fault kinds never perturbs the parameter draws.
        let seq = SeedSequence::new(self.plan.seed);
        let params = seq.child(1);
        match self.pick_fault(&seq.child(0)) {
            BinaryFault::MidTruncate => {
                let keep = 1 + (params.stream(0) % (clean.len() as u64 - 1)) as usize;
                clean[..keep].to_vec()
            }
            BinaryFault::TornHeader => {
                let limit = clean.len().min(64) as u64;
                let keep = (params.stream(0) % limit) as usize;
                clean[..keep].to_vec()
            }
            BinaryFault::BitFlips => {
                let mut out = clean.to_vec();
                let flips = 1 + (params.stream(0) % 4) as usize;
                let mut done: Vec<(usize, u8)> = Vec::with_capacity(flips);
                let mut draw = 1u64;
                while done.len() < flips {
                    let byte = (params.stream(draw) % out.len() as u64) as usize;
                    let bit = (params.stream(draw + 1) % 8) as u8;
                    draw += 2;
                    if done.contains(&(byte, bit)) {
                        continue;
                    }
                    out[byte] ^= 1 << bit;
                    done.push((byte, bit));
                }
                out
            }
            BinaryFault::VersionSkew => {
                let mut out = clean.to_vec();
                let current = u16::from_le_bytes([out[4], out[5]]);
                let mut skewed = (params.stream(0) % (u16::MAX as u64 + 1)) as u16;
                if skewed == current {
                    skewed = skewed.wrapping_add(1);
                }
                out[4..6].copy_from_slice(&skewed.to_le_bytes());
                out
            }
        }
    }

    /// The mix's weighted draw; an all-zero mix falls back to bit flips.
    fn pick_fault(&self, stream: &SeedSequence) -> BinaryFault {
        pick_weighted(&self.plan.mix.weighted(), || stream.stream(0))
            .unwrap_or(BinaryFault::BitFlips)
    }
}

/// Cut `line` at a seeded character boundary (never mid-UTF-8).
fn truncate_at_char(line: &str, draw: u64) -> String {
    let boundaries: Vec<usize> = line
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(line.len()))
        .collect();
    let cut = boundaries[(draw % boundaries.len() as u64) as usize];
    line[..cut].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cause::DetailedCause;
    use crate::ids::{NodeId, SystemId};
    use crate::record::FailureRecord;
    use crate::time::Timestamp;
    use crate::workload::Workload;

    fn sample_trace(n: u64) -> FailureTrace {
        FailureTrace::from_records(
            (0..n)
                .map(|i| {
                    FailureRecord::new(
                        SystemId::new(20),
                        NodeId::new((i % 5) as u32),
                        Timestamp::from_secs(1_000 + i * 600),
                        Timestamp::from_secs(1_000 + i * 600 + 60),
                        Workload::Compute,
                        DetailedCause::Memory,
                    )
                    .unwrap()
                })
                .collect(),
        )
    }

    #[test]
    fn same_plan_same_output() {
        let trace = sample_trace(50);
        let plan = CorruptionPlan {
            shuffle_rows: true,
            truncate_file: true,
            ..CorruptionPlan::new(42, 0.7)
        };
        let a = Corruptor::new(plan).corrupt_trace(&trace);
        let b = Corruptor::new(plan).corrupt_trace(&trace);
        assert_eq!(a, b, "corruption must be replayable from (seed, plan)");
    }

    #[test]
    fn different_seeds_differ() {
        let trace = sample_trace(50);
        let a = Corruptor::new(CorruptionPlan::new(1, 0.8)).corrupt_trace(&trace);
        let b = Corruptor::new(CorruptionPlan::new(2, 0.8)).corrupt_trace(&trace);
        assert_ne!(a, b);
    }

    #[test]
    fn rate_zero_is_identity_on_rows() {
        let trace = sample_trace(20);
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let out = Corruptor::new(CorruptionPlan::new(7, 0.0)).corrupt_csv(&clean);
        assert_eq!(out, clean);
    }

    #[test]
    fn rate_one_faults_every_row() {
        let trace = sample_trace(30);
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let out = Corruptor::new(CorruptionPlan::new(11, 1.0)).corrupt_csv(&clean);
        assert_ne!(out, clean);
    }

    #[test]
    fn truncation_keeps_a_prefix() {
        let plan = CorruptionPlan {
            truncate_file: true,
            ..CorruptionPlan::new(3, 0.0)
        };
        let trace = sample_trace(40);
        let out = Corruptor::new(plan).corrupt_trace(&trace);
        assert!(out.lines().count() <= 41, "header + at most 40 rows");
        assert!(out.lines().count() >= 2, "keeps at least one (partial) row");
    }

    #[test]
    fn truncate_at_char_respects_boundaries() {
        let s = "caf\u{e9},mem\u{f3}ria";
        for draw in 0..64 {
            let t = truncate_at_char(s, draw);
            assert!(s.starts_with(&t));
        }
    }

    #[test]
    fn plan_display_is_replayable_documentation() {
        let plan = CorruptionPlan::new(99, 0.25);
        let text = plan.to_string();
        assert!(text.contains("seed=99"), "{text}");
        assert!(text.contains("rate=0.25"), "{text}");
    }

    #[test]
    fn binary_same_plan_same_output() {
        let clean: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        for seed in 0..32 {
            let plan = BinaryCorruptionPlan::new(seed);
            let a = BinaryCorruptor::new(plan).corrupt_bytes(&clean);
            let b = BinaryCorruptor::new(plan).corrupt_bytes(&clean);
            assert_eq!(a, b, "binary corruption must replay from {plan}");
        }
    }

    #[test]
    fn binary_corruption_always_changes_the_bytes() {
        let clean: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for seed in 0..200 {
            let c = BinaryCorruptor::new(BinaryCorruptionPlan::new(seed));
            let dirty = c.corrupt_bytes(&clean);
            assert_ne!(dirty, clean, "seed {seed} ({:?}) was a no-op", c.fault());
        }
    }

    #[test]
    fn binary_seed_sweep_covers_every_fault_kind() {
        let mut hit = [false; 4];
        for seed in 0..64 {
            let f = BinaryCorruptor::new(BinaryCorruptionPlan::new(seed)).fault();
            hit[match f {
                BinaryFault::MidTruncate => 0,
                BinaryFault::TornHeader => 1,
                BinaryFault::BitFlips => 2,
                BinaryFault::VersionSkew => 3,
            }] = true;
        }
        assert_eq!(hit, [true; 4], "64 seeds must draw every fault kind");
    }

    #[test]
    fn binary_truncations_are_strict_prefixes() {
        let clean: Vec<u8> = (0..=255u8).cycle().take(512).collect();
        let mix = BinaryFaultMix {
            mid_truncate: 1,
            torn_header: 1,
            bit_flips: 0,
            version_skew: 0,
        };
        for seed in 0..100 {
            let plan = BinaryCorruptionPlan { seed, mix };
            let dirty = BinaryCorruptor::new(plan).corrupt_bytes(&clean);
            assert!(dirty.len() < clean.len(), "{plan}");
            assert_eq!(&clean[..dirty.len()], &dirty[..], "{plan}");
        }
    }

    #[test]
    fn binary_version_skew_rewrites_the_version_field() {
        let clean: Vec<u8> = b"HPCT\x01\x00\x00\x00rest of header".to_vec();
        let mix = BinaryFaultMix {
            mid_truncate: 0,
            torn_header: 0,
            bit_flips: 0,
            version_skew: 1,
        };
        for seed in 0..50 {
            let dirty = BinaryCorruptor::new(BinaryCorruptionPlan { seed, mix })
                .corrupt_bytes(&clean);
            assert_eq!(dirty.len(), clean.len());
            assert_ne!(&dirty[4..6], &clean[4..6], "seed {seed}");
            assert_eq!(&dirty[..4], &clean[..4]);
            assert_eq!(&dirty[6..], &clean[6..]);
        }
    }

    #[test]
    fn binary_plan_display_documents_the_mix() {
        let text = BinaryCorruptionPlan::new(7).to_string();
        assert!(text.contains("seed=7"), "{text}");
        assert!(text.contains("bit_flips:1"), "{text}");
    }
}
