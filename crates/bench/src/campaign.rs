//! Seeded direction-metadata fault-injection campaigns.
//!
//! The shared engine behind the `fig13b` experiment and the
//! `fault_campaign` binary: replay a workload while injecting soft-error
//! upsets into the protected direction vector at a fixed rate, then
//! compare the final memory image against a fault-free golden replay and
//! attribute every corrupted word as *detected* (its line is in the
//! cache's degradation log) or *silent* (nothing noticed).
//!
//! Campaign cells are independent, so a sweep runs on the shared worker
//! pool ([`crate::pool`]); cells are seeded and replay ids are scoped,
//! making the rendered table and the metrics stream byte-identical
//! between `--seq` and `--jobs N`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use cnt_cache::prelude::*;
use cnt_cache::EpochClock;
use cnt_obs::Emitter;
use cnt_sim::trace::AccessBatch;
use cnt_sim::MainMemory;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One campaign cell: how the cache is protected and how hard it is hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSpec {
    /// Direction-metadata protection mode under test.
    pub protection: ProtectionMode,
    /// Response to uncorrectable faults.
    pub policy: MetadataFaultPolicy,
    /// Upsets to inject, evenly spaced over the trace.
    pub faults: usize,
    /// Scrub the metadata at every injection interval (protected modes
    /// only; scrubbing an unprotected cache checks nothing).
    pub scrub: bool,
    /// RNG seed for victim line/partition selection.
    pub seed: u64,
}

/// What one campaign cell measured.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// The cell that produced this outcome.
    pub spec: CampaignSpec,
    /// Upsets actually landed (a cold cache can skip early slots).
    pub injected: u64,
    /// Upsets noticed by a protection check.
    pub detected: u64,
    /// Upsets repaired in place (SECDED or check-bit-only).
    pub corrected: u64,
    /// Upsets beyond repair, handed to the fault policy.
    pub uncorrected: u64,
    /// Lines dropped by [`MetadataFaultPolicy::InvalidateLine`].
    pub lines_invalidated: u64,
    /// Lines pinned by [`MetadataFaultPolicy::FallbackBaseline`].
    pub lines_pinned: u64,
    /// Scrub passes completed.
    pub scrub_passes: u64,
    /// 64-bit words in the final memory image that differ from the
    /// fault-free golden replay.
    pub corrupted_words: u64,
    /// Corrupted words on lines the cache *knew* it degraded.
    pub detected_corruptions: u64,
    /// Corrupted words nothing noticed — the failure mode this PR's
    /// protection exists to eliminate.
    pub silent_corruptions: u64,
    /// Energy spent storing/checking protection bits, in pJ.
    pub protection_pj: f64,
    /// Total dynamic energy of the replay, in pJ.
    pub total_pj: f64,
}

impl CampaignOutcome {
    /// Protection energy as a percentage of the cell's total.
    #[must_use]
    pub fn protection_overhead_percent(&self) -> f64 {
        if self.total_pj == 0.0 {
            0.0
        } else {
            self.protection_pj / self.total_pj * 100.0
        }
    }
}

/// Runs one campaign cell over `trace`.
///
/// The cache mirrors the `fig13` setup (adaptive encoding, paper D-Cache
/// geometry, write-back) so the `ProtectionMode::None` cell reproduces
/// the original fig13 corruption counts exactly — same seed, same RNG
/// draw sequence, same injection schedule.
///
/// # Panics
///
/// Panics if the trace fails to replay, or — by design — when
/// [`MetadataFaultPolicy::Panic`] meets an uncorrectable upset.
#[must_use]
pub fn run_cell(trace: &AccessBatch, spec: &CampaignSpec) -> CampaignOutcome {
    // Golden image: same trace, no faults, plain replay.
    let mut golden = MainMemory::new();
    for access in trace {
        if access.is_write() {
            golden.store(access.addr, access.width, access.value);
        }
    }

    let config = CntCacheConfig::builder()
        .policy(EncodingPolicy::adaptive_default())
        .protection(spec.protection)
        .fault_policy(spec.policy)
        .build()
        .expect("static geometry");
    let line_bytes = u64::from(config.geometry.line_bytes());
    let mut cache = CntCache::new(config).expect("valid cache");

    // Observed like any replay: one emitter on the epoch grid, with a
    // trailing partial epoch at the end.
    let mut observer = cnt_obs::epoch_len().map(|every| {
        (
            EpochClock::new(every),
            Emitter::start("obs.replays_observed"),
        )
    });

    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let interval = (trace.len() / (spec.faults + 1)).max(1);
    let scrub = spec.scrub && spec.protection != ProtectionMode::None;
    let mut injected = 0;
    for (i, access) in trace.iter().enumerate() {
        cache.access(&access).expect("trace runs");
        if injected < spec.faults && i % interval == interval - 1 {
            // Same victim selection as fig13: counted line index, then a
            // partition drawn from the codec layout.
            let count = cache.valid_line_count();
            if count > 0 {
                let loc = cache
                    .nth_valid_line(rng.gen_range(0..count))
                    .expect("index below the valid-line count");
                let partition = rng.gen_range(0..cache.partitions());
                if cache.inject_direction_fault(loc, partition) {
                    injected += 1;
                }
            }
            // Scrubbing at the injection interval keeps at most one
            // upset outstanding per line, so SECDED always corrects.
            if scrub {
                cache.scrub_metadata();
            }
        }
        if let Some((clock, emitter)) = observer.as_mut() {
            clock.tick(&cache, &mut |cache, epoch, accesses| {
                emitter.emit(cache, epoch, accesses, None);
            });
        }
    }
    if let Some((clock, emitter)) = observer.as_mut() {
        clock.close(&cache, &mut |cache, epoch, accesses| {
            emitter.emit(cache, epoch, accesses, None);
        });
    }
    cache.flush();

    // Compare every written word against the golden image, attributing
    // mismatches by whether their line is in the degradation log.
    let degraded: BTreeSet<_> = cache
        .degraded_line_bases()
        .iter()
        .map(|base| base.align_down(line_bytes))
        .collect();
    let mut corrupted = 0u64;
    let mut detected_corruptions = 0u64;
    let mut seen = BTreeSet::new();
    for access in trace.iter().filter(|a| a.is_write()) {
        let addr = access.addr.align_down(8);
        if seen.insert(addr) && cache.memory_mut().load(addr, 8) != golden.load(addr, 8) {
            corrupted += 1;
            if degraded.contains(&addr.align_down(line_bytes)) {
                detected_corruptions += 1;
            }
        }
    }

    let r = *cache.reliability_counters();
    cnt_obs::count("reliability.faults_injected", r.faults_injected);
    cnt_obs::count("reliability.faults_corrected", r.faults_corrected);
    cnt_obs::count("reliability.lines_invalidated", r.lines_invalidated);
    cnt_obs::count("reliability.scrub_passes", r.scrub_passes);

    let breakdown = cache.meter().breakdown();
    CampaignOutcome {
        spec: *spec,
        injected: r.faults_injected,
        detected: r.faults_detected,
        corrected: r.faults_corrected,
        uncorrected: r.faults_uncorrected,
        lines_invalidated: r.lines_invalidated,
        lines_pinned: r.lines_pinned,
        scrub_passes: r.scrub_passes,
        corrupted_words: corrupted,
        detected_corruptions,
        silent_corruptions: corrupted - detected_corruptions,
        protection_pj: breakdown.protection_energy().picojoules(),
        total_pj: breakdown.total().picojoules(),
    }
}

/// The default campaign grid: every protection mode crossed with the
/// fault policies it distinguishes, at each requested fault count.
///
/// `None` carries a single placeholder policy row (no protection means
/// no policy ever fires); parity — detect-only — is crossed with both
/// degradation policies; SECDED corrects everything at these rates, so
/// one row suffices.
#[must_use]
pub fn default_grid(fault_counts: &[usize], seed: u64) -> Vec<CampaignSpec> {
    let modes: &[(ProtectionMode, MetadataFaultPolicy, bool)] = &[
        (
            ProtectionMode::None,
            MetadataFaultPolicy::InvalidateLine,
            false,
        ),
        (
            ProtectionMode::Parity,
            MetadataFaultPolicy::InvalidateLine,
            true,
        ),
        (
            ProtectionMode::Parity,
            MetadataFaultPolicy::FallbackBaseline,
            true,
        ),
        (
            ProtectionMode::Secded,
            MetadataFaultPolicy::InvalidateLine,
            true,
        ),
    ];
    let mut grid = Vec::new();
    for &faults in fault_counts {
        for &(protection, policy, scrub) in modes {
            grid.push(CampaignSpec {
                protection,
                policy,
                faults,
                scrub,
                seed,
            });
        }
    }
    grid
}

/// Runs every cell of `grid` over `trace` on the shared worker pool,
/// returning outcomes in grid order.
#[must_use]
pub fn sweep(trace: &AccessBatch, grid: &[CampaignSpec]) -> Vec<CampaignOutcome> {
    crate::pool::par_map(grid, |spec| run_cell(trace, spec))
}

/// Renders a sweep as a markdown-style table.
#[must_use]
pub fn render(outcomes: &[CampaignOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {:>6} | {:>6} | {:>17} | {:>5} | {:>8} | {:>8} | {:>9} | {:>11} | {:>9} | {:>6} | {:>9} |",
        "faults",
        "mode",
        "policy",
        "scrub",
        "injected",
        "detected",
        "corrected",
        "uncorrected",
        "corrupted",
        "silent",
        "protect %"
    );
    for o in outcomes {
        let policy = if o.spec.protection == ProtectionMode::None {
            "-".to_string()
        } else {
            o.spec.policy.to_string()
        };
        let _ = writeln!(
            out,
            "| {:>6} | {:>6} | {:>17} | {:>5} | {:>8} | {:>8} | {:>9} | {:>11} | {:>9} | {:>6} | {:>8.2}% |",
            o.spec.faults,
            o.spec.protection,
            policy,
            if o.spec.scrub && o.spec.protection != ProtectionMode::None {
                "yes"
            } else {
                "no"
            },
            o.injected,
            o.detected,
            o.corrected,
            o.uncorrected,
            o.corrupted_words,
            o.silent_corruptions,
            o.protection_overhead_percent(),
        );
    }
    out
}

/// One history-register (H-counter) fault-injection cell: the same
/// seeded replay-and-upset schedule as [`run_cell`], but the victims are
/// the per-line prediction history counters rather than the direction
/// vector. An upset here never corrupts data — it corrupts *decisions*:
/// the predictor sees a wrong access/write count and mistimes or
/// misdirects encoding switches. "Skew" is any divergence of the
/// encoding counters from a fault-free replay under the same
/// protection; skew with zero detections is the silent failure mode the
/// protected H register exists to eliminate.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryOutcome {
    /// Protection mode under test.
    pub protection: ProtectionMode,
    /// Upsets requested.
    pub faults: usize,
    /// Upsets actually landed.
    pub injected: u64,
    /// Upsets noticed by a protection check.
    pub detected: u64,
    /// Upsets repaired in place.
    pub corrected: u64,
    /// Upsets beyond repair (reset to a clean window).
    pub uncorrected: u64,
    /// Prediction windows completed in the faulted replay.
    pub windows: u64,
    /// Prediction windows completed in the fault-free golden replay.
    pub golden_windows: u64,
    /// Encoding switches applied in the faulted replay.
    pub switches: u64,
    /// Encoding switches applied in the golden replay.
    pub golden_switches: u64,
}

impl HistoryOutcome {
    /// Did the upsets change any encoding decision?
    #[must_use]
    pub fn skewed(&self) -> bool {
        self.windows != self.golden_windows || self.switches != self.golden_switches
    }

    /// Skewed decisions that nothing detected — silent prediction skew.
    #[must_use]
    pub fn silent_skew(&self) -> bool {
        self.skewed() && self.detected == 0
    }
}

/// Runs one H-register fault cell over `trace`: a fault-free golden
/// replay and a faulted replay, both under `protection`, and compares
/// their encoding counters.
///
/// # Panics
///
/// Panics if the trace fails to replay.
#[must_use]
pub fn run_history_cell(
    trace: &AccessBatch,
    protection: ProtectionMode,
    faults: usize,
    seed: u64,
) -> HistoryOutcome {
    let build = |protection| {
        let config = CntCacheConfig::builder()
            .policy(EncodingPolicy::adaptive_default())
            .protection(protection)
            .build()
            .expect("static geometry");
        CntCache::new(config).expect("valid cache")
    };

    // Golden counters: same protection, no upsets — protection overhead
    // itself must not count as skew.
    let mut golden = build(protection);
    for access in trace {
        golden.access(&access).expect("trace runs");
    }
    golden.flush();
    let golden_counters = *golden.encoding_counters();

    let mut cache = build(protection);
    let mut rng = SmallRng::seed_from_u64(seed);
    let interval = (trace.len() / (faults + 1)).max(1);
    let mut injected = 0;
    for (i, access) in trace.iter().enumerate() {
        cache.access(&access).expect("trace runs");
        if injected < faults && i % interval == interval - 1 {
            let count = cache.valid_line_count();
            if count > 0 {
                let loc = cache
                    .nth_valid_line(rng.gen_range(0..count))
                    .expect("index below the valid-line count");
                let bit = rng.gen_range(0..cache.history_data_bits());
                if cache.inject_history_fault(loc, bit) {
                    injected += 1;
                }
            }
        }
    }
    cache.flush();

    let r = *cache.reliability_counters();
    let counters = *cache.encoding_counters();
    HistoryOutcome {
        protection,
        faults,
        injected: injected as u64,
        detected: r.faults_detected,
        corrected: r.faults_corrected,
        uncorrected: r.faults_uncorrected,
        windows: counters.windows,
        golden_windows: golden_counters.windows,
        switches: counters.switches_applied,
        golden_switches: golden_counters.switches_applied,
    }
}

/// Runs an H-register cell for every (protection, fault count) pair on
/// the shared worker pool, in grid order.
#[must_use]
pub fn sweep_history(
    trace: &AccessBatch,
    grid: &[(ProtectionMode, usize)],
    seed: u64,
) -> Vec<HistoryOutcome> {
    crate::pool::par_map(grid, |&(protection, faults)| {
        run_history_cell(trace, protection, faults, seed)
    })
}

/// Renders a history sweep as a markdown-style table.
#[must_use]
pub fn render_history(outcomes: &[HistoryOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {:>6} | {:>6} | {:>8} | {:>8} | {:>9} | {:>15} | {:>17} | {:>11} |",
        "faults",
        "mode",
        "injected",
        "detected",
        "corrected",
        "windows (gold)",
        "switches (gold)",
        "silent skew"
    );
    for o in outcomes {
        let _ = writeln!(
            out,
            "| {:>6} | {:>6} | {:>8} | {:>8} | {:>9} | {:>6} ({:>6}) | {:>7} ({:>7}) | {:>11} |",
            o.faults,
            o.protection,
            o.injected,
            o.detected,
            o.corrected,
            o.windows,
            o.golden_windows,
            o.switches,
            o.golden_switches,
            if o.silent_skew() { "YES" } else { "no" },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_workloads::kernels;

    fn spec(
        protection: ProtectionMode,
        policy: MetadataFaultPolicy,
        faults: usize,
    ) -> CampaignSpec {
        CampaignSpec {
            protection,
            policy,
            faults,
            scrub: true,
            seed: 0xFA17,
        }
    }

    #[test]
    fn unprotected_cell_reproduces_fig13_counts() {
        let w = kernels::matmul(12, 1);
        for faults in [1, 8] {
            let cell = run_cell(
                &w.trace,
                &CampaignSpec {
                    protection: ProtectionMode::None,
                    policy: MetadataFaultPolicy::InvalidateLine,
                    faults,
                    scrub: false,
                    seed: 2,
                },
            );
            assert_eq!(
                cell.corrupted_words as usize,
                crate::experiments::fig13::corrupted_words(&w.trace, faults, 2),
                "protection=None must match the original fig13 run"
            );
            assert_eq!(cell.detected, 0, "nothing detects without protection");
            assert_eq!(cell.silent_corruptions, cell.corrupted_words);
        }
    }

    #[test]
    fn secded_with_scrub_has_zero_silent_corruption() {
        let w = kernels::matmul(12, 1);
        for faults in [1, 4, 16] {
            let cell = run_cell(
                &w.trace,
                &spec(
                    ProtectionMode::Secded,
                    MetadataFaultPolicy::InvalidateLine,
                    faults,
                ),
            );
            assert_eq!(
                cell.silent_corruptions, 0,
                "SECDED+scrub must be silent-free"
            );
            assert_eq!(
                cell.corrupted_words, 0,
                "single upsets are always corrected"
            );
            assert_eq!(cell.uncorrected, 0);
            assert_eq!(cell.corrected, cell.injected);
            assert!(cell.protection_pj > 0.0, "protection energy is itemized");
        }
    }

    #[test]
    fn parity_detects_and_degrades_without_silent_corruption() {
        let w = kernels::matmul(12, 1);
        let cell = run_cell(
            &w.trace,
            &spec(
                ProtectionMode::Parity,
                MetadataFaultPolicy::InvalidateLine,
                8,
            ),
        );
        assert_eq!(cell.detected, cell.injected);
        assert_eq!(cell.corrected, 0, "parity cannot correct");
        assert_eq!(
            cell.silent_corruptions, 0,
            "every lost word sits on a logged degraded line"
        );
    }

    #[test]
    fn unprotected_history_cell_skews_silently() {
        let w = kernels::matmul(12, 1);
        let cell = run_history_cell(&w.trace, ProtectionMode::None, 8, 0xFA17);
        assert!(cell.injected > 0, "upsets must land");
        assert_eq!(cell.detected, 0, "nothing detects without protection");
        assert!(
            cell.skewed(),
            "H upsets must change encoding decisions: {cell:?}"
        );
        assert!(cell.silent_skew());
    }

    #[test]
    fn protected_history_cell_has_zero_skew() {
        let w = kernels::matmul(12, 1);
        for faults in [2, 8, 16] {
            let cell = run_history_cell(&w.trace, ProtectionMode::Secded, faults, 0xFA17);
            assert!(cell.injected > 0, "upsets must land");
            assert!(!cell.skewed(), "SECDED must repair before skew: {cell:?}");
            // Not every upset is *seen*: a victim line can be evicted
            // and refilled clean before its next access, and two upsets
            // stacking on one register become a detected-uncorrectable
            // reset (2 upsets -> 1 event). What must never happen is a
            // seen upset left unflagged — the skew check above — and at
            // least some singles must be corrected in place.
            assert!(cell.corrected >= 1, "some upsets must be caught: {cell:?}");
            assert!(cell.corrected + cell.uncorrected <= cell.injected);
            assert_eq!(cell.detected, cell.corrected + cell.uncorrected);
        }
    }

    #[test]
    fn history_sweep_matches_sequential_and_renders() {
        let w = kernels::matmul(10, 1);
        let grid = [(ProtectionMode::None, 4), (ProtectionMode::Secded, 4)];
        let pooled = sweep_history(&w.trace, &grid, 7);
        let sequential: Vec<_> = grid
            .iter()
            .map(|&(p, f)| run_history_cell(&w.trace, p, f, 7))
            .collect();
        assert_eq!(pooled, sequential);
        let rendered = render_history(&pooled);
        assert!(rendered.contains("silent skew"));
        assert_eq!(rendered.lines().count(), 3);
    }

    #[test]
    fn sweep_matches_a_sequential_run() {
        let w = kernels::matmul(10, 1);
        let grid = default_grid(&[4], 11);
        let pooled = sweep(&w.trace, &grid);
        let sequential: Vec<_> = grid.iter().map(|s| run_cell(&w.trace, s)).collect();
        assert_eq!(pooled, sequential, "cells are pure functions of their spec");
    }

    #[test]
    fn grid_covers_every_mode_at_every_rate() {
        let grid = default_grid(&[2, 8], 7);
        assert_eq!(grid.len(), 8);
        assert!(grid.iter().any(|s| s.protection == ProtectionMode::None));
        assert!(grid
            .iter()
            .any(|s| s.policy == MetadataFaultPolicy::FallbackBaseline));
        let rendered = render(&sweep(&kernels::matmul(8, 1).trace, &grid[..2]));
        assert!(rendered.contains("| faults |"));
        assert!(rendered.lines().count() >= 3);
    }
}
