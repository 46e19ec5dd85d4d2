//! `real_search`: a real-training A4NN search on seeded XFEL images, with
//! per-epoch checkpoints, a snapshot at every generation boundary, and the
//! commons plus checkpoints saved at the end.

use crate::replay;
use crate::trace::{TracedFactory, Tracer};
use crate::util::{dir_usage, fnv1a, gaps, host_cores, Report, FNV_OFFSET};
use a4nn_core::prelude::*;
use a4nn_core::RealTrainerFactory;
use a4nn_lineage::ModelRecord;
use a4nn_nn::Dataset;
use a4nn_xfel::generate_split;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Images per class generated from the seed; a fifth goes to validation.
pub const IMAGES_PER_CLASS: usize = 20;
pub const POPULATION: usize = 8;
pub const OFFSPRING: usize = 8;
pub const GENERATIONS: usize = 3;
/// Large enough that PENGUIN stops some models early, small enough that
/// the models it does not stop run only a few epochs more than the ones it
/// does, which keeps the work per search close across datasets.
pub const EPOCHS: u32 = 8;
/// The search's own seed. The benchmark seed generates the XFEL images;
/// the search starts from the same population on every dataset, and the
/// data steers it through PENGUIN's stops and NSGA-II's selection.
pub const SEARCH_SEED: u64 = 2023;

pub fn config(gpus: usize) -> WorkflowConfig {
    WorkflowConfig {
        nas: NasSettings {
            population: POPULATION,
            offspring: OFFSPRING,
            generations: GENERATIONS,
            epochs: EPOCHS,
            ..NasSettings::paper_defaults()
        },
        engine: Some(EngineConfig::paper_defaults()),
        gpus,
        beam: BeamIntensity::Medium,
        seed: SEARCH_SEED,
        objectives: ObjectiveSet::default(),
    }
}

/// The run's datasets and the factory training on them.
pub struct Setup {
    pub factory: RealTrainerFactory,
    pub train: Arc<Dataset>,
    pub val: Arc<Dataset>,
}

/// XFEL datagen plus factory build: the work before the first model trains.
pub fn setup(seed: u64, tracer: Option<&'static Tracer>) -> Setup {
    let t0 = Instant::now();
    let (train, val) = generate_split(
        &XfelConfig::default(),
        BeamIntensity::Medium,
        IMAGES_PER_CLASS,
        seed,
    );
    if let Some(t) = tracer {
        t.add("xfel.datagen_s", t0.elapsed().as_secs_f64());
    }
    let (train, val) = (Arc::new(train), Arc::new(val));
    let factory = RealTrainerFactory::new(
        config(host_cores()).search_space(),
        Arc::clone(&train),
        Arc::clone(&val),
        TrainingHyperparams::default(),
    );
    Setup {
        factory,
        train,
        val,
    }
}

/// What one search left behind, for the output check and the traced
/// replays.
pub struct SearchResult {
    pub output: RunOutput,
    pub digest: u64,
}

/// Digest of the records with the wall-clock fields cleared: the epoch
/// durations, the model's train time, and the GPU placement the FIFO
/// schedule derives from those durations.
pub fn records_digest(records: &[ModelRecord]) -> u64 {
    let mut hash = FNV_OFFSET;
    for record in records {
        let mut r = record.clone();
        r.wall_time_s = 0.0;
        r.gpu = None;
        for e in &mut r.epochs {
            e.duration_s = 0.0;
        }
        let bytes = serde_json::to_vec(&r).unwrap_or_default();
        hash = fnv1a(&bytes, hash);
    }
    hash
}

/// One repetition: set up, search, persist. `dir` must be empty.
pub fn rep(
    seed: u64,
    dir: &Path,
    tracer: Option<&'static Tracer>,
) -> Result<(Report, SearchResult), String> {
    let cfg = config(host_cores());
    // Direct splits every generation across all cores and gives each of
    // the `gpus` trainers cores/gpus GEMM threads; any other `gpus`
    // oversubscribes or idles the host.
    if cfg.gpus != host_cores() {
        return Err(format!(
            "real_search needs gpus == nproc, got {} on {}",
            cfg.gpus,
            host_cores()
        ));
    }
    let t0 = Instant::now();
    let setup = setup(seed, tracer);
    let setup_s = t0.elapsed().as_secs_f64();
    let factory = &setup.factory;

    let workflow = A4nnWorkflow::new(cfg);
    let checkpoints = CheckpointStore::new();
    let run_dir = dir.join("run");
    let boundaries = std::sync::Mutex::new(Vec::new());
    let hook = |_done: usize| {
        if let Ok(mut b) = boundaries.lock() {
            b.push(Instant::now());
        }
        false
    };
    let mut control = RunControl::snapshot_into(&run_dir);
    if tracer.is_some() {
        control = control.with_cancel(&hook);
    }
    let traced = tracer.map(|t| TracedFactory::new(factory, t));
    let factory_ref: &dyn TrainerFactory = match &traced {
        Some(f) => f,
        None => factory,
    };
    let t1 = Instant::now();
    let output = workflow
        .try_run_resumable(
            factory_ref,
            Some(&checkpoints),
            Orchestration::Direct,
            &FaultTolerance::default(),
            &control,
            None,
        )
        .map_err(|e| format!("real search failed: {e}"))?;
    let t_saved = Instant::now();
    output
        .commons
        .save_dir(&run_dir)
        .map_err(|e| format!("saving commons: {e}"))?;
    checkpoints
        .save_dir(&run_dir.join("checkpoints"))
        .map_err(|e| format!("saving checkpoints: {e}"))?;
    let wall_s = t1.elapsed().as_secs_f64();

    let epochs = output.total_epochs();
    let models = output.commons.len() as u64;
    let failed: Vec<_> = output
        .commons
        .records
        .iter()
        .filter(|r| r.failed())
        .collect();
    let mut report = Report::default();
    report.num("setup_s", setup_s);
    report.num("wall_s", wall_s);
    report.num("rate_per_s", epochs as f64 / wall_s);
    let epoch_ms: Vec<f64> = output
        .commons
        .records
        .iter()
        .flat_map(|r| r.epochs.iter().map(|e| e.duration_s * 1e3))
        .collect();
    report.num("latency_ms", crate::util::median(&epoch_ms));
    report.num("models_attempted", models as f64);
    report.num("models_failed", failed.len() as f64);
    report.num("epochs_attempted", epochs as f64);
    report.num(
        "epochs_failed",
        failed.iter().map(|r| f64::from(r.epochs_trained())).sum(),
    );
    if let Some(t) = tracer {
        t.add("lineage.save_s", t_saved.elapsed().as_secs_f64());
        let (bytes, files) = dir_usage(&run_dir);
        t.add("lineage.files", files as f64);
        t.add("lineage.bytes", bytes as f64);
        let stamps = boundaries.into_inner().unwrap_or_default();
        t.set_series("core.generation_s", gaps(t1, &stamps));
        t.add("nn.make_s", t.total("nn.make"));
        t.add("nn.epoch_s", t.total("nn.epoch"));
        t.add("nn.epochs", t.durations("nn.epoch").len() as f64);
        t.add("nn.snapshot_s", t.total("nn.snapshot"));
        let peak = t.series("nn.ws_peak_bytes").into_iter().fold(0.0, f64::max);
        t.set_series("nn.ws_peak_bytes", vec![peak]);
        let cfg = config(host_cores());
        let space = cfg.search_space();
        let records = &output.commons.records;
        replay::core_layers(t, &output, cfg.gpus);
        replay::search_layers(t, &cfg, records, output.engine_interactions);
        replay::nn_phases(t, &space, records, &setup.train, &setup.val);
        replay::nn_layer_kinds(t, &space, records, &setup.train);
    }
    let digest = records_digest(&output.commons.records);
    Ok((report, SearchResult { output, digest }))
}
