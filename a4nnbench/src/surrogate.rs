//! `surrogate_search`: a paper-scale search with the calibrated surrogate
//! trainer, resumed from the snapshot the same seed's search committed
//! part-way, then run to the final generation with a snapshot at every
//! boundary.

use crate::replay;
use crate::trace::Tracer;
use crate::util::{dir_usage, gaps, host_cores, Report};
use a4nn_core::prelude::*;
use std::path::Path;
use std::time::Instant;

/// Generations committed before the prepared interruption. The snapshot
/// holds every record up to here, and its size is part of the workload:
/// `SearchSnapshot::load` parses it in time that grows faster than
/// linearly with its size.
pub const RESUME_AT: usize = 5;

/// The paper's configuration (Tables 1 and 2) at medium beam.
pub fn config(seed: u64) -> WorkflowConfig {
    WorkflowConfig::a4nn(BeamIntensity::Medium, host_cores(), seed)
}

fn factory(cfg: &WorkflowConfig) -> SurrogateFactory {
    SurrogateFactory::new(cfg, SurrogateParams::for_beam(cfg.beam))
}

/// Untimed inputs: the uninterrupted reference commons in `dir/ref` and
/// the part-way snapshot in `dir/snap`.
pub fn prepare(seed: u64, dir: &Path) -> Result<(), String> {
    let cfg = config(seed);
    let workflow = A4nnWorkflow::new(cfg.clone());
    let f = factory(&cfg);
    let reference = workflow
        .try_run_resilient(&f, None, Orchestration::Direct, &FaultTolerance::default())
        .map_err(|e| format!("reference search failed: {e}"))?;
    reference
        .commons
        .save_dir(&dir.join("ref"))
        .map_err(|e| format!("saving reference commons: {e}"))?;
    let stop = |done: usize| done >= RESUME_AT;
    let control = RunControl::snapshot_into(dir.join("snap")).with_cancel(&stop);
    match workflow.try_run_resumable(
        &f,
        None,
        Orchestration::Direct,
        &FaultTolerance::default(),
        &control,
        None,
    ) {
        Err(A4nnError::Interrupted(_)) => Ok(()),
        Err(e) => Err(format!("interrupted search failed: {e}")),
        Ok(_) => Err("search ran to the end instead of stopping at the boundary".into()),
    }
}

/// Size of the prepared snapshot and the time `SearchSnapshot::save`
/// takes to commit it again.
fn snapshot_write(t: &Tracer, dir: &Path, cfg: &WorkflowConfig, out: &Path) -> Result<(), String> {
    let snap_dir = dir.join("snap");
    let (bytes, _) = dir_usage(&snap_dir);
    t.add("core.snapshot_bytes", bytes as f64);
    let snapshot =
        SearchSnapshot::load(&snap_dir, cfg).map_err(|e| format!("loading snapshot: {e}"))?;
    let target = out.join("snapshot_write");
    let mut times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        snapshot
            .save(&target)
            .map_err(|e| format!("saving snapshot: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
    }
    t.add("core.snapshot_write_s", crate::util::median(&times));
    Ok(())
}

/// Files of the commons (`model_*.json` and `manifest.json`) in `dir`,
/// sorted by name, with their bytes.
fn commons_files(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "manifest.json" || (name.starts_with("model_") && name.ends_with(".json")) {
            let bytes = std::fs::read(entry.path())
                .map_err(|e| format!("reading {}: {e}", entry.path().display()))?;
            files.push((name, bytes));
        }
    }
    files.sort();
    Ok(files)
}

/// One repetition: load the snapshot, resume to the end, save the
/// commons into `out`, and compare it with the reference byte for byte.
pub fn rep(
    seed: u64,
    dir: &Path,
    out: &Path,
    tracer: Option<&'static Tracer>,
) -> Result<Report, String> {
    let cfg = config(seed);
    let t0 = Instant::now();
    let snapshot = SearchSnapshot::load(&dir.join("snap"), &cfg)
        .map_err(|e| format!("loading snapshot: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let resumed_from = snapshot.records.len();
    let prior_steps = snapshot.engine_interactions;

    let workflow = A4nnWorkflow::new(cfg.clone());
    let f = factory(&cfg);
    let boundaries = std::sync::Mutex::new(Vec::new());
    let hook = |_done: usize| {
        if let Ok(mut b) = boundaries.lock() {
            b.push(Instant::now());
        }
        false
    };
    let control = RunControl::snapshot_into(out).with_cancel(&hook);
    let t1 = Instant::now();
    let output = workflow
        .try_run_resumable(
            &f,
            None,
            Orchestration::Direct,
            &FaultTolerance::default(),
            &control,
            Some(snapshot),
        )
        .map_err(|e| format!("resumed search failed: {e}"))?;
    let t_save = Instant::now();
    output
        .commons
        .save_dir(out)
        .map_err(|e| format!("saving commons: {e}"))?;
    let wall_s = t1.elapsed().as_secs_f64();
    let save_s = t_save.elapsed().as_secs_f64();

    let generation_s = gaps(t1, &boundaries.into_inner().unwrap_or_default());
    let resumed = &output.commons.records[resumed_from..];
    let failed: Vec<_> = resumed.iter().filter(|r| r.failed()).collect();
    let identical = commons_files(out)? == commons_files(&dir.join("ref"))?;

    let mut report = Report::default();
    report.num("setup_s", setup_s);
    report.num("wall_s", wall_s);
    report.num("rate_per_s", resumed.len() as f64 / wall_s);
    report.num("latency_ms", 1e3 * crate::util::median(&generation_s));
    report.num("models_attempted", resumed.len() as f64);
    report.num("models_failed", failed.len() as f64);
    report.num(
        "epochs_attempted",
        resumed.iter().map(|r| f64::from(r.epochs_trained())).sum(),
    );
    report.num(
        "epochs_failed",
        failed.iter().map(|r| f64::from(r.epochs_trained())).sum(),
    );
    report.num("check_failed", f64::from(u8::from(!identical)));
    if let Some(t) = tracer {
        t.set_series("core.generation_s", generation_s);
        replay::core_layers(t, &output, cfg.gpus);
        replay::search_layers(t, &cfg, resumed, output.engine_interactions - prior_steps);
        t.add("core.resume_load_s", setup_s);
        t.add("lineage.save_s", save_s);
        let (bytes, files) = dir_usage(out);
        t.add("lineage.files", files as f64);
        t.add("lineage.bytes", bytes as f64);
        snapshot_write(t, dir, &cfg, out)?;
    }
    Ok(report)
}
