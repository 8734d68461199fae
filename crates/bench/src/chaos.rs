//! `repro chaos` — fault-injection harness for the session layer.
//!
//! Each scenario injects one kind of fault into an engine run and checks
//! the recovery invariant the session layer promises: **no fault changes
//! the target stream**. A run that survives worker panics, is killed and
//! resumed mid-flight, loses checkpoint writes to a failing disk, or is
//! starved by absurd deadlines must still produce byte-identical targets
//! and cumulative stats to the run where nothing went wrong.
//!
//! Scenarios (each exercising a distinct fault kind):
//!
//! 1. **worker-panic** — deterministic panics inside parallel growth
//!    workers; the serial failover must recover every cluster.
//! 2. **kill-resume** — the process dies at a round boundary (simulated
//!    by serializing the checkpoint and dropping the session); a fresh
//!    session resumed from the bytes must finish the identical run.
//! 3. **checkpoint-io** — checkpoint writes fail transiently (fewer
//!    faults than the retry budget: the write must land) and persistently
//!    (more faults: the *previous* checkpoint must survive intact and
//!    remain resumable).
//! 4. **deadline-jitter** — segments run under tiny, varying time limits,
//!    checkpointing every round; chaining resumes until natural
//!    termination must converge on the uninterrupted run.
//! 5. **corrupt-checkpoint** — flipped bytes and truncations must be
//!    rejected by the decoder, never accepted or panicked on.
//!
//! Run via `repro chaos` (full) or `repro chaos --quick` (CI smoke).

use super::experiments::ExperimentOptions;
use sixgen_addr::NybbleAddr;
use sixgen_core::{
    CheckpointWriter, ClusterMode, Config, EngineCheckpoint, Outcome, PanicInjection, Session,
    SixGen, Step, Termination,
};
use std::path::PathBuf;
use std::time::Duration;

/// Dense three-seed groups with pairwise-distant prefixes (`0x111 × g`),
/// so every group grows independently: a `groups`-growth ladder whose
/// equal densities force an RNG tie-break every round — the workload most
/// sensitive to any state lost across a fault.
fn ladder_seeds(groups: u32) -> Vec<NybbleAddr> {
    (0..groups * 3)
        .map(|i| {
            let group = (i / 3 + 1) as u128 * 0x111;
            let host = (i % 3) as u128;
            NybbleAddr::from_bits(0x2001_0db8 << 96 | group << 4 | host)
        })
        .collect()
}

fn config(budget: u64) -> Config {
    Config {
        budget,
        mode: ClusterMode::Loose,
        ..Config::default()
    }
}

/// Scratch file in the OS temp dir, unique per process and scenario.
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sixgen-chaos-{}-{tag}.ckpt", std::process::id()))
}

/// The equality every scenario asserts: same targets, same cumulative
/// stats, same stopping rule.
fn same_run(baseline: &Outcome, other: &Outcome, context: &str) -> Result<(), String> {
    if baseline.targets.as_slice() != other.targets.as_slice() {
        return Err(format!(
            "{context}: target streams diverged ({} vs {} targets)",
            baseline.targets.len(),
            other.targets.len()
        ));
    }
    let b = &baseline.stats;
    let o = &other.stats;
    if (b.rounds, b.growths, b.subsumed, b.budget_used, b.termination)
        != (o.rounds, o.growths, o.subsumed, o.budget_used, o.termination)
    {
        return Err(format!("{context}: stats diverged ({b:?} vs {o:?})"));
    }
    Ok(())
}

/// Scenario 1: panics injected into every parallel growth worker touching
/// a singleton cluster. The engine's per-cluster recovery (serial retry)
/// must absorb them all without changing the output.
fn worker_panic(_opts: &ExperimentOptions) -> Result<String, String> {
    // ≥ 64 clusters so the first cache fill goes parallel (the injection
    // only fires in parallel workers).
    let seeds = ladder_seeds(30);
    let clean = SixGen::new(seeds.clone(), config(600)).run();
    // The injected panics are caught by the engine; mute the default
    // hook's per-panic backtrace spew for the duration.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let injected = SixGen::new(
        seeds,
        Config {
            threads: 4,
            panic_injection: Some(PanicInjection {
                range_size: 1,
                parallel_only: true,
            }),
            ..config(600)
        },
    )
    .run();
    std::panic::set_hook(hook);
    if injected.stats.worker_panics == 0 {
        return Err("no panics fired: the fault was not injected".into());
    }
    if clean.targets.as_slice() != injected.targets.as_slice() {
        return Err("targets diverged after worker panics".into());
    }
    if clean.stats.termination != injected.stats.termination {
        return Err("termination diverged after worker panics".into());
    }
    Ok(format!(
        "{} panics absorbed, {} targets identical",
        injected.stats.worker_panics,
        clean.targets.len()
    ))
}

/// Scenario 2: kill the process at a round boundary, resume from the
/// serialized checkpoint. Tested at every boundary (full) or at the first,
/// middle, and last (quick).
fn kill_resume(opts: &ExperimentOptions) -> Result<String, String> {
    let seeds = ladder_seeds(10);
    let cfg = config(300);
    let baseline = SixGen::new(seeds.clone(), cfg.clone()).run();
    let rounds = baseline.stats.rounds;
    if rounds < 4 {
        return Err(format!("workload too short ({rounds} rounds)"));
    }
    let boundaries: Vec<u64> = if opts.quick {
        vec![0, rounds / 2, rounds - 1]
    } else {
        (0..rounds).collect()
    };
    for &k in &boundaries {
        let mut session = SixGen::new(seeds.clone(), cfg.clone()).session();
        for step in 0..k {
            if session.step() != Step::Grew {
                return Err(format!("boundary {k} unreachable (terminated at {step})"));
            }
        }
        let bytes = session.checkpoint().to_bytes();
        drop(session); // the killed process

        let checkpoint = EngineCheckpoint::from_bytes(&bytes)
            .map_err(|e| format!("boundary {k}: checkpoint failed to decode: {e}"))?;
        let resumed = Session::resume(checkpoint, cfg.clone())
            .map_err(|e| format!("boundary {k}: resume refused: {e}"))?
            .run();
        same_run(&baseline, &resumed, &format!("boundary {k}"))?;
    }
    Ok(format!(
        "{} kill points, all resumed byte-identical",
        boundaries.len()
    ))
}

/// Scenario 3: the checkpoint file's disk misbehaves. Transient faults
/// must be retried through; persistent faults must leave the previous
/// checkpoint intact and resumable.
fn checkpoint_io(_opts: &ExperimentOptions) -> Result<String, String> {
    let seeds = ladder_seeds(10);
    let cfg = config(300);
    let baseline = SixGen::new(seeds.clone(), cfg.clone()).run();
    let path = temp_path("io");
    let _ = std::fs::remove_file(&path);

    let mut session = SixGen::new(seeds.clone(), cfg.clone()).session();
    for _ in 0..2 {
        if session.step() != Step::Grew {
            return Err("workload too short for boundary 2".into());
        }
    }
    let early = session.checkpoint();
    for _ in 0..2 {
        if session.step() != Step::Grew {
            return Err("workload too short for boundary 4".into());
        }
    }
    let late = session.checkpoint();
    drop(session);

    // Transient: 2 faults against a 3-retry budget — the write must land.
    let mut writer = CheckpointWriter::with_policy(&path, 3, Duration::from_millis(1));
    writer.inject_failures = 2;
    writer
        .write(&early.to_bytes())
        .map_err(|e| format!("write failed despite retry budget: {e}"))?;
    EngineCheckpoint::load(&path).map_err(|e| format!("persisted checkpoint unreadable: {e}"))?;

    // Persistent: more faults than attempts — the write must fail, and the
    // file must still hold the earlier checkpoint, still resumable.
    writer.inject_failures = 10;
    if writer.write(&late.to_bytes()).is_ok() {
        return Err("persistently faulted write reported success".into());
    }
    let survived =
        EngineCheckpoint::load(&path).map_err(|e| format!("previous checkpoint lost: {e}"))?;
    if survived.to_bytes() != early.to_bytes() {
        return Err("failed write corrupted the previous checkpoint".into());
    }
    let resumed = Session::resume(survived, cfg.clone())
        .map_err(|e| format!("surviving checkpoint refused resume: {e}"))?
        .run();
    same_run(&baseline, &resumed, "resume after lost write")?;
    let _ = std::fs::remove_file(&path);
    Ok("transient faults retried, persistent fault left prior checkpoint resumable".into())
}

/// Scenario 4: segments run under tiny, varying deadlines, checkpointing
/// at every round boundary; chaining resume-after-deadline must converge
/// on the uninterrupted run. Deadlines that strike before any progress
/// escalate the next segment's limit, so convergence is guaranteed.
fn deadline_jitter(opts: &ExperimentOptions) -> Result<String, String> {
    let seeds = ladder_seeds(10);
    let cfg = config(300);
    let baseline = SixGen::new(seeds.clone(), cfg.clone()).run();

    let jitter = [40u64, 110, 60, 180, 80];
    let max_segments = if opts.quick { 40 } else { 200 };
    let mut limit_boost: u32 = 0;
    let mut last_checkpoint: Option<Vec<u8>> = None;
    let mut segments = 0u32;
    let mut interrupted = 0u32;
    let final_outcome = loop {
        if segments >= max_segments {
            return Err(format!("no convergence after {max_segments} segments"));
        }
        let micros = jitter[segments as usize % jitter.len()] << limit_boost;
        let segment_cfg = Config {
            time_limit: Some(Duration::from_micros(micros)),
            ..cfg.clone()
        };
        let session = match &last_checkpoint {
            None => SixGen::new(seeds.clone(), segment_cfg).session(),
            Some(bytes) => {
                let checkpoint = EngineCheckpoint::from_bytes(bytes)
                    .map_err(|e| format!("segment {segments}: checkpoint undecodable: {e}"))?;
                Session::resume(checkpoint, segment_cfg)
                    .map_err(|e| format!("segment {segments}: resume refused: {e}"))?
            }
        };
        let growths_before = session.growths();
        let mut latest: Option<Vec<u8>> = None;
        let outcome = session.run_with(|s| latest = Some(s.checkpoint().to_bytes()));
        segments += 1;
        if outcome.stats.termination != Termination::Deadline {
            break outcome;
        }
        interrupted += 1;
        // A segment that grew nothing made no checkpoint; widen the next
        // deadline so the chain always makes progress eventually.
        if outcome.stats.growths == growths_before {
            limit_boost = (limit_boost + 1).min(20);
        } else {
            limit_boost = 0;
            last_checkpoint = latest;
        }
    };
    if interrupted == 0 {
        return Err("deadlines never fired: jitter too generous to test anything".into());
    }
    same_run(&baseline, &final_outcome, "after deadline chain")?;
    Ok(format!(
        "{interrupted} deadline interruptions across {segments} segments, converged byte-identical"
    ))
}

/// Scenario 5: corrupted checkpoints must be detected — every byte flip
/// and truncation rejected with an error, never accepted or panicked on.
fn corrupt_checkpoint(opts: &ExperimentOptions) -> Result<String, String> {
    let seeds = ladder_seeds(10);
    let mut session = SixGen::new(seeds, config(300)).session();
    for _ in 0..3 {
        if session.step() != Step::Grew {
            return Err("workload too short for boundary 3".into());
        }
    }
    let bytes = session.checkpoint().to_bytes();
    drop(session);

    let stride = if opts.quick { 17 } else { 1 };
    let mut rejected = 0usize;
    let mut attempts = 0usize;
    for i in (0..bytes.len()).step_by(stride) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0xA5;
        attempts += 1;
        match EngineCheckpoint::from_bytes(&corrupt) {
            Err(_) => rejected += 1,
            Ok(_) => return Err(format!("flipped byte {i} went undetected")),
        }
    }
    for len in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
        attempts += 1;
        match EngineCheckpoint::from_bytes(&bytes[..len]) {
            Err(_) => rejected += 1,
            Ok(_) => return Err(format!("truncation to {len} bytes went undetected")),
        }
    }
    Ok(format!("{rejected}/{attempts} corruptions detected"))
}

/// Runs every scenario, printing one PASS/FAIL row each. Returns `true`
/// when all pass (the `repro` driver exits non-zero otherwise).
pub fn run(opts: &ExperimentOptions) -> bool {
    type Scenario = fn(&ExperimentOptions) -> Result<String, String>;
    let scenarios: [(&str, Scenario); 5] = [
        ("worker-panic", worker_panic),
        ("kill-resume", kill_resume),
        ("checkpoint-io", checkpoint_io),
        ("deadline-jitter", deadline_jitter),
        ("corrupt-checkpoint", corrupt_checkpoint),
    ];
    let mut ok = true;
    for (name, scenario) in scenarios {
        match scenario(opts) {
            Ok(detail) => println!("chaos: {name:<20} PASS  {detail}"),
            Err(error) => {
                ok = false;
                eprintln!("chaos: {name:<20} FAIL  {error}");
            }
        }
    }
    if ok {
        println!("chaos: OK ({} scenarios)", scenarios.len());
    }
    ok
}
