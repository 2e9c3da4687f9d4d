//! Robustness of the `.ctrs` checkpoint format and the kill-and-resume
//! contract.
//!
//! The property under test: **no damaged checkpoint is ever partially
//! restored**. Any single-bit flip, truncation, version bump, or config
//! mismatch must surface as the right typed [`CheckpointError`] before
//! any state is touched — or, for flips confined to the format's few
//! unvalidated pad bytes, decode to state identical to the original.
//! The `#[ignore]`d test at the bottom drives the real binary through a
//! SIGKILL at a random point and asserts the resumed run's stdout and
//! metrics stream are byte-identical to an uninterrupted run's.

use std::path::PathBuf;

use cnt_bench::ckpt::{self, DriverState};
use cnt_bench::runner::dcache_config;
use cnt_bench::stream::ReplayCursor;
use cnt_cache::{CntCache, CntCacheConfig, EncodingPolicy};
use cnt_trace::{CheckpointError, CheckpointFile};
use proptest::prelude::*;

fn configs() -> (CntCacheConfig, CntCacheConfig) {
    (
        dcache_config("L1D", EncodingPolicy::None),
        dcache_config("L1D", EncodingPolicy::adaptive_default()),
    )
}

/// A realistic checkpoint: a cache warmed by a few hundred accesses,
/// mid-pass driver state, the full section set.
fn sample_checkpoint() -> (CheckpointFile, u64) {
    let (base, cnt) = configs();
    let mut cache = CntCache::new(cnt.clone()).expect("valid config");
    for i in 0..400u64 {
        let addr = cnt_sim::Address::new((i % 96) * 8);
        if i % 3 == 0 {
            cache
                .write(addr, 8, i.wrapping_mul(0x0101_0101))
                .expect("write");
        } else {
            cache.read(addr, 8).expect("read");
        }
    }
    let driver = DriverState {
        pass: 1,
        baseline: None,
        cursor: ReplayCursor {
            chunk: 3,
            accesses: 400,
            ..ReplayCursor::default()
        },
        replay_ids_allocated: 2,
        metrics_every: None,
    };
    let expected = ckpt::pair_fingerprint(base.fingerprint(), cnt.fingerprint());
    let file = ckpt::build(&cache, (&base, &cnt), 0xFEED, &driver).expect("builds");
    (file, expected)
}

fn write_temp(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join("cnt_ckpt_robustness");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("writes");
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping ANY single bit either fails with a typed error or leaves
    /// the loaded state exactly equal to the original (pad bytes only) —
    /// never a silently different restore.
    #[test]
    fn single_bit_flip_never_silently_alters_state(
        case in (any::<u64>(), 0u8..8)
    ) {
        let (file, expected) = sample_checkpoint();
        let pristine = file.to_bytes();
        let (index, bit) = case;
        let pos = (index % pristine.len() as u64) as usize;
        let mut bytes = pristine.clone();
        bytes[pos] ^= 1 << bit;

        let path = write_temp(&format!("flip_{pos}_{bit}.ctrs"), &bytes);
        match ckpt::load(&path, expected) {
            Err(_) => {} // rejected before any restore — the common case
            Ok((loaded, driver, obs)) => {
                prop_assert_eq!(&loaded, &file, "flip at byte {} bit {} changed the parse", pos, bit);
                let original: DriverState = serde_json::from_str(
                    std::str::from_utf8(file.require("driver").unwrap()).unwrap(),
                ).unwrap();
                prop_assert_eq!(
                    serde_json::to_string(&driver).unwrap(),
                    serde_json::to_string(&original).unwrap()
                );
                let _ = obs;
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Every strict prefix of a valid file is `Truncated` — a torn write
    /// that escaped the atomic-rename protocol can never half-load.
    #[test]
    fn any_truncation_is_fatal(cut in any::<u64>()) {
        let (file, expected) = sample_checkpoint();
        let pristine = file.to_bytes();
        // 0..=len-1: always a strict prefix of the valid byte stream.
        let len = (cut % pristine.len() as u64) as usize;
        let path = write_temp(&format!("trunc_{len}.ctrs"), &pristine[..len]);
        let err = ckpt::load(&path, expected).expect_err("strict prefix must fail");
        prop_assert!(
            matches!(err, CheckpointError::Truncated { .. }),
            "expected Truncated, got {err}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn targeted_corruptions_hit_the_right_variant() {
    let (file, expected) = sample_checkpoint();
    let pristine = file.to_bytes();
    let check = |name: &str, bytes: Vec<u8>| {
        let path = write_temp(name, &bytes);
        let err = ckpt::load(&path, expected).expect_err("corruption must fail");
        std::fs::remove_file(&path).ok();
        err
    };

    // Damaged magic.
    let mut bytes = pristine.clone();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        check("magic.ctrs", bytes),
        CheckpointError::BadMagic { .. }
    ));

    // Version bump: a future format must be refused, not guessed at.
    let mut bytes = pristine.clone();
    bytes[8] = bytes[8].wrapping_add(1);
    assert!(matches!(
        check("version.ctrs", bytes),
        CheckpointError::UnsupportedVersion { .. }
    ));

    // Manifest body damage (the config fingerprint lives here): caught
    // by the manifest CRC before the fingerprint is even compared.
    let mut bytes = pristine.clone();
    bytes[16] ^= 0x01;
    assert!(matches!(
        check("manifest.ctrs", bytes),
        CheckpointError::ManifestCrc { .. }
    ));

    // Section payload damage names the damaged section.
    let cache_payload = file.require("cache").expect("cache section");
    let at = pristine
        .windows(cache_payload.len().min(64))
        .position(|w| w == &cache_payload[..cache_payload.len().min(64)])
        .expect("cache payload embedded in file");
    let mut bytes = pristine.clone();
    bytes[at + 10] ^= 0x40;
    match check("payload.ctrs", bytes) {
        CheckpointError::SectionCrc { section, .. } => assert_eq!(section, "cache"),
        other => panic!("expected SectionCrc, got {other}"),
    }

    // A checkpoint from a different experiment configuration.
    let path = write_temp("config.ctrs", &pristine);
    let err = ckpt::load(&path, expected ^ 1).expect_err("wrong config must fail");
    std::fs::remove_file(&path).ok();
    assert!(matches!(err, CheckpointError::ConfigMismatch { .. }));
}

const PINNED_LEN: usize = 230_029;
const PINNED_CRC: u32 = 0x77D7_7DA4;

/// The bytes of a checkpoint whose memory section holds written-back
/// chunks: 6,000 accesses, two in three of them writes, over 2,048
/// lines, four times the L1D's 512. A change to how `MainMemory` stores
/// or serializes its chunks, or to any other section, shows here as a
/// different length or CRC-32. The constants were captured from the
/// build before `MainMemory` copied whole chunks; change them only with
/// a note in CHANGES.md saying why the checkpoint bytes moved.
#[test]
fn checkpoint_bytes_are_pinned_across_builds() {
    let (base, cnt) = configs();
    let mut cache = CntCache::new(cnt.clone()).expect("valid config");
    for i in 0..6000u64 {
        let line = i.wrapping_mul(7919) % 2048;
        let addr = cnt_sim::Address::new(line * 64 + (i % 8) * 8);
        if i % 3 == 0 {
            cache.read(addr, 8).expect("read");
        } else {
            cache
                .write(addr, 8, i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .expect("write");
        }
    }
    let driver = DriverState {
        pass: 1,
        baseline: None,
        cursor: ReplayCursor {
            chunk: 5,
            accesses: 6000,
            ..ReplayCursor::default()
        },
        replay_ids_allocated: 2,
        metrics_every: None,
    };
    let bytes = ckpt::build(&cache, (&base, &cnt), 0xC0FFEE, &driver)
        .expect("builds")
        .to_bytes();
    assert_eq!(
        (bytes.len(), cnt_trace::crc32(&bytes)),
        (PINNED_LEN, PINNED_CRC),
        "checkpoint bytes moved"
    );
}

// ------------------------------------------------------------------ oracle

/// Runs the release `tracegen` binary with the given args, returning
/// (exit success, stdout).
fn tracegen(dir: &std::path::Path, args: &[&str]) -> (bool, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tracegen"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("tracegen spawns");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Kill-and-resume differential oracle against the real binary: SIGKILL
/// the checkpointing run at a pseudo-random point mid-replay, resume
/// from the surviving `.ctrs`, and require stdout and the metrics
/// stream to be byte-identical to an uninterrupted run — across jobs
/// settings. Ignored by default: it replays a multi-million-access
/// trace several times. Run with `cargo test -- --ignored`.
#[test]
#[ignore = "multi-second end-to-end kill/resume oracle; run with --ignored"]
fn sigkill_resume_oracle() {
    let dir = std::env::temp_dir().join("cnt_sigkill_oracle");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    let (ok, _) = tracegen(
        &dir,
        &[
            "pack-synth",
            "oracle.ctr",
            "--accesses",
            "4000000",
            "--density",
            "0.2",
            "--chunk",
            "512",
            "--seed",
            "17",
        ],
    );
    assert!(ok, "pack-synth failed");

    let replay = |extra: &[&str], metrics: &str| {
        let mut args = vec![
            "stream-replay",
            "oracle.ctr",
            "--budget-mib",
            "1",
            "--metrics-out",
            metrics,
            "--metrics-every",
            "100000",
        ];
        args.extend_from_slice(extra);
        tracegen(&dir, &args)
    };

    let (ok, full_stdout) = replay(&["--seq"], "full.jsonl");
    assert!(ok, "uninterrupted run failed");
    let full_metrics = std::fs::read(dir.join("full.jsonl")).expect("metrics written");

    // Kill at a spread of points; at least some must land mid-replay
    // after the first checkpoint.
    let mut resumed_after_kill = 0u32;
    for (round, delay_ms) in [120u64, 300, 600, 1000, 1500].iter().enumerate() {
        std::fs::remove_file(dir.join("oracle.ctrs")).ok();
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_tracegen"))
            .current_dir(&dir)
            .args([
                "stream-replay",
                "oracle.ctr",
                "--budget-mib",
                "1",
                "--seq",
                "--metrics-out",
                "killed.jsonl",
                "--metrics-every",
                "100000",
                "--checkpoint-every",
                "200",
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawns");
        std::thread::sleep(std::time::Duration::from_millis(*delay_ms));
        let finished = child.try_wait().expect("try_wait").is_some();
        child.kill().ok();
        child.wait().expect("reaped");
        if finished || !dir.join("oracle.ctrs").exists() {
            // Too late (run completed) or too early (no checkpoint yet):
            // nothing to resume this round.
            continue;
        }
        resumed_after_kill += 1;
        let jobs: &[&str] = if round % 2 == 0 {
            &["--seq"]
        } else {
            &["--jobs", "4"]
        };
        let mut args = vec!["--resume", "oracle.ctrs"];
        args.extend_from_slice(jobs);
        let (ok, stdout) = replay(&args, "resumed.jsonl");
        assert!(ok, "resume failed (round {round})");
        assert_eq!(stdout, full_stdout, "stdout diverged (round {round})");
        let metrics = std::fs::read(dir.join("resumed.jsonl")).expect("metrics written");
        assert_eq!(metrics, full_metrics, "metrics diverged (round {round})");
    }
    assert!(
        resumed_after_kill >= 1,
        "no kill landed mid-replay; widen the delay spread"
    );
}
